//! Generator fingerprints: the world's size and a checksum of every day it
//! emits, pinned per preset and seed.
//!
//! The generator's output is a pure function of its config. Any change to
//! the order or number of RNG draws moves at least one of these values, so
//! an optimisation that claims "no draw changed" is checked here, not
//! inferred from a benchmark digest.

use segugio_model::{Day, DayWindow};
use segugio_traffic::{IspConfig, IspNetwork};

/// CRC-32 (IEEE 802.3, reflected), bit at a time: small and obviously
/// right beats fast for a few hundred kilobytes.
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(!0)
    }

    fn u32(&mut self, v: u32) {
        for byte in v.to_le_bytes() {
            self.0 ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (self.0 & 1).wrapping_neg();
                self.0 = (self.0 >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
    }

    fn finish(&self) -> u32 {
        !self.0
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    domains: usize,
    pdns_records: usize,
    pdns_domains: usize,
    tracked_fqds: usize,
    commercial: usize,
    public: usize,
    /// Per full day: CRC-32 of its queries, then of its resolutions.
    days: [(u32, u32); 2],
    /// CRC-32 of the whole pDNS history and of every FQD's active days.
    history: (u32, u32),
}

fn fingerprint(cfg: IspConfig) -> Fingerprint {
    let mut w = IspNetwork::new(cfg);
    w.warm_up(15);
    let days = [(); 2].map(|()| {
        let t = w.next_day();
        let mut queries = Crc32::new();
        for &(m, d) in &t.queries {
            queries.u32(m.0);
            queries.u32(d.0);
        }
        let mut resolutions = Crc32::new();
        for (d, ips) in &t.resolutions {
            resolutions.u32(d.0);
            resolutions.u32(ips.len() as u32);
            for ip in ips {
                resolutions.u32(ip.0);
            }
        }
        (queries.finish(), resolutions.finish())
    });
    let mut pdns = Crc32::new();
    for (d, day, ip) in w.pdns().records_in(DayWindow::new(Day(0), w.today())) {
        pdns.u32(d.0);
        pdns.u32(day.0);
        pdns.u32(ip.0);
    }
    let mut activity = Crc32::new();
    for d in w.table().ids() {
        for day in w.activity().fqd_days(d) {
            activity.u32(d.0);
            activity.u32(day.0);
        }
    }
    Fingerprint {
        domains: w.table().len(),
        pdns_records: w.pdns().len(),
        pdns_domains: w.pdns().domain_count(),
        tracked_fqds: w.activity().tracked_fqds(),
        commercial: w.commercial_blacklist().len(),
        public: w.public_blacklist().len(),
        days,
        history: (pdns.finish(), activity.finish()),
    }
}

/// A tiny world with the optional behaviours switched on: scanners probe
/// the blacklist and DHCP churn splits machine ids.
fn tiny_with_scanners(seed: u64) -> IspConfig {
    IspConfig {
        scanner_fraction: 0.02,
        dhcp_churn: 0.2,
        ..IspConfig::tiny(seed)
    }
}

#[test]
fn tiny_worlds_are_pinned() {
    let want = Fingerprint {
        domains: 4565,
        pdns_records: 32199,
        pdns_domains: 4541,
        tracked_fqds: 4541,
        commercial: 71,
        public: 34,
        days: [(0x49E1_FA22, 0x9F5A_7312), (0xFD73_7FCC, 0xA9EA_0DD5)],
        history: (0x7464_7656, 0xFE89_4128),
    };
    assert_eq!(fingerprint(IspConfig::tiny(3)), want);
    let want = Fingerprint {
        domains: 4585,
        pdns_records: 34099,
        pdns_domains: 4561,
        tracked_fqds: 4561,
        commercial: 62,
        public: 41,
        days: [(0x6A68_AB3B, 0x8DBE_E2C4), (0xFB66_8A92, 0x1BDD_31DE)],
        history: (0xCD93_5826, 0xD3EF_2379),
    };
    assert_eq!(fingerprint(IspConfig::tiny(83)), want);
}

#[test]
fn tiny_world_with_scanners_and_churn_is_pinned() {
    let want = Fingerprint {
        domains: 4583,
        pdns_records: 34137,
        pdns_domains: 4559,
        tracked_fqds: 4559,
        commercial: 73,
        public: 39,
        days: [(0x70B1_C718, 0x6EE0_7EB5), (0x87BB_7422, 0x3D6B_3DD7)],
        history: (0x50ED_86AC, 0x7DB7_4F3C),
    };
    assert_eq!(fingerprint(tiny_with_scanners(5)), want);
}

#[test]
fn small_worlds_are_pinned() {
    let want = Fingerprint {
        domains: 25_771,
        pdns_records: 163_380,
        pdns_domains: 25_747,
        tracked_fqds: 25_747,
        commercial: 201,
        public: 110,
        days: [(0xBE2E_BDE4, 0x2C8F_D42D), (0x95DA_4547, 0x329B_70B4)],
        history: (0xDADA_CD85, 0x4BC9_D7CF),
    };
    assert_eq!(fingerprint(IspConfig::small(7)), want);
    let want = Fingerprint {
        domains: 25_686,
        pdns_records: 163_132,
        pdns_domains: 25_662,
        tracked_fqds: 25_662,
        commercial: 197,
        public: 118,
        days: [(0xB2B0_ABA2, 0x3DCB_2F17), (0x904A_0C87, 0x7A59_4E0C)],
        history: (0xADC0_35B0, 0x6890_3CC5),
    };
    assert_eq!(fingerprint(IspConfig::small(83)), want);
}
