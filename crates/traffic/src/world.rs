//! The ISP world model and its day-by-day simulation.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use segugio_model::{
    Blacklist, Day, DomainId, DomainName, DomainTable, E2ldId, Ipv4, MachineId, Prefix24, Whitelist,
};
use segugio_pdns::{ActivityStore, PassiveDns};

use crate::cdf::{sample_cdf, GuidedCdf};
use crate::config::IspConfig;
use crate::day::DayTraffic;
use crate::names::NameGen;
use crate::truth::{DomainKind, GroundTruth};

/// The "leaky" free-hosting e2LDs baked into `segugio_model::psl`.
const FREE_HOSTING_POOL: &[&str] = &[
    "egloos.example",
    "freehostia.example",
    "uol.example.br",
    "interfree.example",
    "narod.example",
    "xtgem.example",
    "luxup.example",
    "sites-free.example",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Normal,
    Inactive,
    Proxy,
    Scanner,
}

#[derive(Debug, Clone)]
struct MachineProfile {
    role: Role,
    /// Daily benign-query volume for this machine.
    daily_volume: f64,
    favorites: Vec<DomainId>,
    infections: Vec<u32>,
}

/// A benign site; its FQDs are its slice of [`SiteFqds`].
#[derive(Debug, Clone)]
struct BenignSite {
    e2ld: E2ldId,
    ips: Vec<Ipv4>,
    whitelisted: bool,
}

/// Every benign site's FQDs in one column, site after site, so a draw that
/// picks a site and then one of its FQDs reads two flat arrays.
#[derive(Debug, Clone, Default)]
struct SiteFqds {
    fqds: Vec<DomainId>,
    /// Site `s`'s FQDs are `fqds[starts[s]..starts[s + 1]]`.
    starts: Vec<u32>,
}

impl SiteFqds {
    fn push_site(&mut self, fqds: &[DomainId]) {
        if self.starts.is_empty() {
            self.starts.push(0);
        }
        self.fqds.extend_from_slice(fqds);
        self.starts.push(self.fqds.len() as u32);
    }

    fn of(&self, site: usize) -> &[DomainId] {
        &self.fqds[self.starts[site] as usize..self.starts[site + 1] as usize]
    }
}

#[derive(Debug, Clone)]
struct CncDomain {
    id: DomainId,
    e2ld: E2ldId,
    retire_on: Day,
    ips: Vec<Ipv4>,
}

#[derive(Debug, Clone)]
struct Family {
    active: Vec<CncDomain>,
    prefixes: Vec<Prefix24>,
    /// The family's actual control servers. Domains relocate; servers are
    /// far stickier — that reuse is what the IP-abuse features (F3) and the
    /// paper's intuition (1) feed on.
    server_ips: Vec<Ipv4>,
    uses_free_hosting: bool,
    target_active: usize,
}

/// A simulated ISP network: machines, the benign web, malware families, and
/// the history stores (activity + passive DNS) that accumulate as days pass.
///
/// Days advance in two modes:
///
/// - [`IspNetwork::warm_up`] / light mode — updates domain lifecycles,
///   activity and pDNS history without materializing per-machine query
///   logs. Used for history build-up and for the gaps between train and
///   test days.
/// - [`IspNetwork::next_day`] / full mode — generates the complete query
///   log ([`DayTraffic`]) for graph construction.
#[derive(Debug, Clone)]
pub struct IspNetwork {
    cfg: IspConfig,
    rng: StdRng,
    table: DomainTable,
    activity: ActivityStore,
    pdns: PassiveDns,
    truth: GroundTruth,
    whitelist: Whitelist,
    commercial: Blacklist,
    public: Blacklist,
    machines: Vec<MachineProfile>,
    sites: Vec<BenignSite>,
    site_fqds: SiteFqds,
    /// Zipf popularity over `sites`.
    site_cdf: GuidedCdf,
    mega_fqds: Vec<DomainId>,
    families: Vec<Family>,
    tail_slots: Vec<Option<DomainId>>,
    tail_providers: Vec<(E2ldId, Prefix24)>,
    /// Index from benign e2LD to its site (`u32::MAX`: no site), so
    /// per-domain resolution is O(1).
    site_by_e2ld: Vec<u32>,
    /// Scratch for the per-infection shuffle of active control domains.
    shuffle_scratch: Vec<usize>,
    next_private_prefix: u32,
    shared_prefixes: Vec<Prefix24>,
    /// Owners of ephemeral (DHCP-churned) machine ids, indexed by
    /// `id - cfg.machines`.
    ephemeral_owners: Vec<usize>,
    today: Day,
}

impl IspNetwork {
    /// Builds the world at day 0.
    pub fn new(cfg: IspConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut table = DomainTable::new();
        let mut truth = GroundTruth::new(cfg.machines);
        let mut whitelist = Whitelist::new();

        // --- Benign universe ---
        let mut sites = Vec::with_capacity(cfg.benign_e2lds + cfg.free_hosting_e2lds);
        let mut site_fqds = SiteFqds::default();
        let mut fqds = Vec::new();
        let n_whitelisted = (cfg.benign_e2lds as f64 * cfg.whitelisted_fraction) as usize;
        for rank in 0..cfg.benign_e2lds {
            let e2ld_name = NameGen::benign_e2ld(&mut rng, rank);
            let n_fqds = 1 + rng.gen_range(0..cfg.max_fqds_per_e2ld);
            fqds.clear();
            let main_id = table.intern(&e2ld_name);
            truth.set_kind(main_id, DomainKind::Benign);
            fqds.push(main_id);
            let e2ld = table.e2ld_of(main_id);
            for _ in 1..n_fqds {
                let sub = NameGen::subdomain(&mut rng, e2ld_name.as_str());
                let id = table.intern(&sub);
                truth.set_kind(id, DomainKind::Benign);
                fqds.push(id);
            }
            let prefix = Prefix24::from_octets(16, (rank / 200) as u8, (rank % 200) as u8);
            let ips: Vec<Ipv4> = (0..rng.gen_range(1..=3u8))
                .map(|k| prefix.host(10 + k))
                .collect();
            let whitelisted = rank < n_whitelisted;
            if whitelisted {
                whitelist.insert(e2ld);
            }
            site_fqds.push_site(&fqds);
            sites.push(BenignSite {
                e2ld,
                ips,
                whitelisted,
            });
        }
        // Leaky free-hosting e2LDs: whitelisted, popular-ish, abused later.
        let n_free = cfg.free_hosting_e2lds.min(FREE_HOSTING_POOL.len());
        for (k, &zone) in FREE_HOSTING_POOL.iter().take(n_free).enumerate() {
            let name = DomainName::parse(zone).expect("embedded zone is valid");
            let main_id = table.intern(&name);
            truth.set_kind(main_id, DomainKind::Benign);
            let e2ld = table.e2ld_of(main_id);
            whitelist.insert(e2ld);
            let prefix = Prefix24::from_octets(17, 0, k as u8);
            fqds.clear();
            fqds.push(main_id);
            // Legitimate user pages under the zone.
            for _ in 0..6 {
                let sub = NameGen::subdomain(&mut rng, zone);
                let id = table.intern(&sub);
                truth.set_kind(id, DomainKind::Benign);
                fqds.push(id);
            }
            site_fqds.push_site(&fqds);
            sites.push(BenignSite {
                e2ld,
                ips: vec![prefix.host(20), prefix.host(21)],
                whitelisted: true,
            });
        }

        // Popularity CDF over sites (Zipf by construction rank; the
        // free-hosting zones get mid-range popularity).
        let weights: Vec<f64> = (0..sites.len())
            .map(|r| 1.0 / ((r + 1) as f64).powf(cfg.zipf_exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let site_cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        debug_assert!(
            site_cdf.iter().all(|p| p.is_finite()),
            "site CDF entries are finite by construction"
        );
        let site_cdf = GuidedCdf::new(site_cdf);

        let mega_fqds: Vec<DomainId> = (0..sites.len().min(cfg.mega_popular_e2lds))
            .map(|s| site_fqds.of(s)[0])
            .collect();

        // --- Tail providers (CDN-hash long tail) ---
        let tail_providers: Vec<(E2ldId, Prefix24)> = (0..24)
            .map(|k| {
                let name =
                    DomainName::parse(&format!("cdn{k}.example")).expect("valid tail provider");
                let id = table.intern(&name);
                truth.set_kind(id, DomainKind::Benign);
                (table.e2ld_of(id), Prefix24::from_octets(18, 0, k as u8))
            })
            .collect();

        // --- Machines ---
        let mut roles = vec![Role::Normal; cfg.machines];
        let n_inactive = (cfg.machines as f64 * cfg.inactive_fraction) as usize;
        let n_proxy = ((cfg.machines as f64 * cfg.proxy_fraction) as usize).max(1);
        let n_scanner = (cfg.machines as f64 * cfg.scanner_fraction) as usize;
        for r in roles.iter_mut().take(n_inactive) {
            *r = Role::Inactive;
        }
        for r in roles.iter_mut().skip(n_inactive).take(n_proxy) {
            *r = Role::Proxy;
        }
        for r in roles.iter_mut().skip(n_inactive + n_proxy).take(n_scanner) {
            *r = Role::Scanner;
        }
        roles.shuffle(&mut rng);

        let machines: Vec<MachineProfile> = roles
            .into_iter()
            .map(|role| {
                let volume_mult = (rng.gen::<f64>() * 2.0 - 1.0) * cfg.daily_volume_sigma;
                let daily_volume = cfg.median_daily_domains * volume_mult.exp();
                let n_fav = rng.gen_range(cfg.favorites.0..=cfg.favorites.1);
                let mut favorites = Vec::with_capacity(n_fav);
                for _ in 0..n_fav {
                    // Zipf-weighted favorite selection via the site CDF.
                    let fqds = site_fqds.of(site_cdf.sample(rng.gen()));
                    favorites.push(fqds[rng.gen_range(0..fqds.len())]);
                }
                favorites.sort_unstable();
                favorites.dedup();
                MachineProfile {
                    role,
                    daily_volume,
                    favorites,
                    infections: Vec::new(),
                }
            })
            .collect();

        let mut world = IspNetwork {
            cfg,
            rng,
            table,
            activity: ActivityStore::new(),
            pdns: PassiveDns::new(),
            truth,
            whitelist,
            commercial: Blacklist::new(),
            public: Blacklist::new(),
            machines,
            sites,
            site_fqds,
            site_cdf,
            mega_fqds,
            families: Vec::new(),
            tail_slots: Vec::new(),
            tail_providers,
            site_by_e2ld: Vec::new(),
            shuffle_scratch: Vec::new(),
            next_private_prefix: 0,
            shared_prefixes: Vec::new(),
            ephemeral_owners: Vec::new(),
            today: Day(0),
        };
        for (i, site) in world.sites.iter().enumerate() {
            let e = site.e2ld.index();
            if e >= world.site_by_e2ld.len() {
                world.site_by_e2ld.resize(e + 1, u32::MAX);
            }
            world.site_by_e2ld[e] = i as u32;
        }
        world.tail_slots = vec![None; world.cfg.tail_pool];

        // --- Malware world ---
        let n_shared = (world.cfg.families / 5).max(2);
        world.shared_prefixes = (0..n_shared)
            .map(|k| Prefix24::from_octets(185, 10 + (k / 250) as u8, (k % 250) as u8))
            .collect();
        // "Dirty" commodity hosting: a slice of the less-popular benign
        // sites lives in the same shared prefixes that bullet-proof hosters
        // sell to malware operators. This is what makes pure
        // reputation-based systems (Notos) produce false positives on
        // legitimate domains hosted in previously-abused networks
        // (paper Table IV: 54.7% of Notos's FPs were "/24 networks used by
        // malware").
        {
            // All popularity ranks except the mega-popular can land on
            // commodity hosting; the whitelist (and hence Segugio's benign
            // training rows) must contain dirty-hosted sites, or the
            // classifier would over-trust the IP-abuse features.
            let start = world.cfg.mega_popular_e2lds + 10;
            let n_sites = world.sites.len();
            for s in start..n_sites {
                if world.rng.gen::<f64>() < 0.06 {
                    let k = world.rng.gen_range(0..world.shared_prefixes.len());
                    let p = world.shared_prefixes[k];
                    let host = world.rng.gen();
                    world.sites[s].ips = vec![p.host(host)];
                }
            }
        }
        for f in 0..world.cfg.families {
            let uses_free_hosting = world.rng.gen::<f64>() < world.cfg.abused_subdomain_families;
            let mut prefixes = Vec::with_capacity(world.cfg.prefixes_per_family);
            for _ in 0..world.cfg.prefixes_per_family {
                if world.rng.gen::<f64>() < world.cfg.shared_prefix_prob {
                    let k = world.rng.gen_range(0..world.shared_prefixes.len());
                    prefixes.push(world.shared_prefixes[k]);
                } else {
                    prefixes.push(world.alloc_private_prefix());
                }
            }
            let target_active = world.cfg.domains_per_family.max(2);
            let n_servers = world.rng.gen_range(3..=6usize);
            let server_ips: Vec<Ipv4> = (0..n_servers)
                .map(|_| {
                    let p = prefixes[world.rng.gen_range(0..prefixes.len())];
                    p.host(world.rng.gen())
                })
                .collect();
            world.families.push(Family {
                active: Vec::new(),
                prefixes,
                server_ips,
                uses_free_hosting,
                target_active,
            });
            for _ in 0..target_active {
                world.activate_cnc_domain(f as u32, Day(0));
            }
        }

        // --- Infections (Zipf over families so victim counts vary) ---
        let fam_weights: Vec<f64> = (0..world.cfg.families)
            .map(|r| 1.0 / ((r + 1) as f64).powf(0.7))
            .collect();
        let fam_total: f64 = fam_weights.iter().sum();
        let mut fam_acc = 0.0;
        let fam_cdf: Vec<f64> = fam_weights
            .iter()
            .map(|w| {
                fam_acc += w / fam_total;
                fam_acc
            })
            .collect();
        debug_assert!(
            fam_cdf.iter().all(|p| p.is_finite()),
            "family CDF entries are finite by construction"
        );
        let n_infected = world.cfg.expected_infected();
        let mut order: Vec<usize> = (0..world.cfg.machines).collect();
        order.shuffle(&mut world.rng);
        for &m in order.iter().take(n_infected) {
            if world.machines[m].role == Role::Proxy {
                continue;
            }
            let mut fams = 1usize;
            while fams < 3 && world.rng.gen::<f64>() < world.cfg.multi_infection {
                fams += 1;
            }
            for _ in 0..fams {
                let u = world.rng.gen::<f64>();
                let fam = sample_cdf(&fam_cdf, u) as u32;
                world.machines[m].infections.push(fam);
                world.truth.add_infection(m, fam);
            }
            world.machines[m].infections.sort_unstable();
            world.machines[m].infections.dedup();
        }

        // --- Public-blacklist noise (benign domains mislabeled as C&C) ---
        for _ in 0..world.cfg.public_noise {
            let site = world.rng.gen_range(0..world.sites.len());
            let fqds = world.site_fqds.of(site);
            let fqd = fqds[world.rng.gen_range(0..fqds.len())];
            world.public.insert(fqd, Day(0));
        }

        world
    }

    /// The generator configuration.
    pub fn config(&self) -> &IspConfig {
        &self.cfg
    }

    /// The current (not yet simulated) day.
    pub fn today(&self) -> Day {
        self.today
    }

    /// The domain-name interner (shared by all stores and traffic).
    pub fn table(&self) -> &DomainTable {
        &self.table
    }

    /// The accumulated per-day activity store.
    pub fn activity(&self) -> &ActivityStore {
        &self.activity
    }

    /// The accumulated passive-DNS store.
    pub fn pdns(&self) -> &PassiveDns {
        &self.pdns
    }

    /// The ground-truth oracle (evaluation only — the detector must not see
    /// this).
    pub fn truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// The popularity whitelist.
    pub fn whitelist(&self) -> &Whitelist {
        &self.whitelist
    }

    /// The commercial C&C blacklist (high coverage, expert-vetted, lagged).
    pub fn commercial_blacklist(&self) -> &Blacklist {
        &self.commercial
    }

    /// The public C&C blacklist (smaller, noisier, more lagged).
    pub fn public_blacklist(&self) -> &Blacklist {
        &self.public
    }

    /// Resolves a (possibly ephemeral, DHCP-churned) machine id back to the
    /// canonical machine index it belongs to.
    pub fn canonical_machine(&self, id: MachineId) -> usize {
        let idx = id.index();
        if idx < self.cfg.machines {
            idx
        } else {
            self.ephemeral_owners[idx - self.cfg.machines]
        }
    }

    /// Advances `days` in light mode: domain lifecycles, activity and pDNS
    /// history are updated, but no query log is produced.
    pub fn warm_up(&mut self, days: u32) {
        for _ in 0..days {
            let day = self.today;
            self.family_lifecycles(day);
            self.record_background_history(day);
            self.today = day.next();
        }
    }

    /// Simulates the current day in full, returning its traffic, and
    /// advances the clock.
    pub fn next_day(&mut self) -> DayTraffic {
        let mut queries: Vec<(MachineId, DomainId)> = Vec::new();
        let (day, resolutions) =
            self.next_day_streamed(usize::MAX, |chunk| queries.extend_from_slice(chunk));
        DayTraffic {
            day,
            queries,
            resolutions,
        }
    }

    /// Simulates the current day in machine-chunks: every `chunk_machines`
    /// machines, the query observations generated so far are handed to
    /// `sink` and the buffer is reused, so a paper-scale day never holds all
    /// query events at once — peak memory is the largest chunk, not the
    /// day's query count. Returns the day and its resolutions (one entry
    /// per distinct queried domain, ascending).
    ///
    /// The emitted query sequence, the resolutions, and every history-store
    /// side effect are bit-for-bit identical to [`next_day`](Self::next_day)
    /// at any chunk size — `next_day` is this method with one infinite
    /// chunk.
    pub fn next_day_streamed<F>(
        &mut self,
        chunk_machines: usize,
        mut sink: F,
    ) -> (Day, Vec<(DomainId, Vec<Ipv4>)>)
    where
        F: FnMut(&[(MachineId, DomainId)]),
    {
        let day = self.today;
        self.family_lifecycles(day);

        // Domains seen today, as a growable bitmap over DomainId (the tail
        // generator interns fresh ids mid-day). Walking it ascending at the
        // end reproduces `sort + dedup` over the full query log exactly.
        let mut seen: Vec<bool> = Vec::new();
        fn flush<F: FnMut(&[(MachineId, DomainId)])>(
            chunk: &mut Vec<(MachineId, DomainId)>,
            seen: &mut Vec<bool>,
            sink: &mut F,
        ) {
            for &(_, d) in chunk.iter() {
                let i = d.index();
                if i >= seen.len() {
                    seen.resize(i + 1, false);
                }
                seen[i] = true;
            }
            sink(chunk);
            chunk.clear();
        }

        let chunk_machines = chunk_machines.max(1);
        let mut chunk: Vec<(MachineId, DomainId)> = Vec::new();
        let mut in_chunk = 0usize;
        for m in 0..self.machines.len() {
            self.machine_day(m, day, &mut chunk);
            in_chunk += 1;
            if in_chunk == chunk_machines {
                flush(&mut chunk, &mut seen, &mut sink);
                in_chunk = 0;
            }
        }
        if !chunk.is_empty() {
            flush(&mut chunk, &mut seen, &mut sink);
        }

        // Record history and resolutions for every domain seen today plus
        // all alive control domains (their authoritative records exist even
        // on a day a victim happens to skip them).
        let mut resolutions: Vec<(DomainId, Vec<Ipv4>)> = Vec::new();
        for (i, &was_seen) in seen.iter().enumerate() {
            if !was_seen {
                continue;
            }
            let d = DomainId(i as u32);
            let ips = self.resolve(d);
            self.activity.record(d, self.table.e2ld_of(d), day);
            for &ip in &ips {
                self.pdns.record(d, ip, day);
            }
            resolutions.push((d, ips));
        }
        self.record_control_domains(day);

        self.today = day.next();
        (day, resolutions)
    }

    // ---------------------------------------------------------------
    // Per-machine daily traffic
    // ---------------------------------------------------------------

    fn machine_day(&mut self, m: usize, day: Day, queries: &mut Vec<(MachineId, DomainId)>) {
        let mid = MachineId(m as u32);
        let role = self.machines[m].role;
        let volume = self.machines[m].daily_volume;

        // DHCP churn: the machine may change identifier mid-day, splitting
        // its query log across two ids. The split point is derived from
        // (machine, day) rather than drawn from `self.rng` so the shared
        // stream advances identically at every churn rate — churn sweeps
        // then compare the same simulated world, differing only in how
        // identifiers are split.
        let alias = if self.rng.gen::<f64>() < self.cfg.dhcp_churn {
            let id = MachineId((self.cfg.machines + self.ephemeral_owners.len()) as u32);
            self.ephemeral_owners.push(m);
            let mut h = (m as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((day.0 as u64) << 17 | 0xC4E5);
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
            let cut = (h >> 11) as f64 / (1u64 << 53) as f64;
            Some((id, cut))
        } else {
            None
        };
        let mut flip = {
            // Cheap deterministic per-query chooser seeded from the day.
            let mut state = (m as u64) << 32 | day.0 as u64 | 1;
            move || {
                state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
                (state >> 33) as f64 / (1u64 << 31) as f64
            }
        };
        let mut push = move |queries: &mut Vec<(MachineId, DomainId)>, d: DomainId| {
            let id = match alias {
                Some((alias_id, cut)) if flip() >= cut => alias_id,
                _ => mid,
            };
            queries.push((id, d));
        };

        match role {
            Role::Inactive => {
                let n = self.rng.gen_range(1..=4usize);
                for _ in 0..n {
                    if let Some(&d) = pick(&self.machines[m].favorites, &mut self.rng) {
                        push(queries, d);
                    }
                }
            }
            Role::Normal | Role::Scanner | Role::Proxy => {
                let mult = if role == Role::Proxy { 15.0 } else { 1.0 };
                let k = (volume * mult).max(1.0) as usize;

                // Mega-popular domains.
                for i in 0..self.mega_fqds.len() {
                    if self.rng.gen::<f64>() < 0.8 {
                        push(queries, self.mega_fqds[i]);
                    }
                }
                // Favorites (roughly 60% of volume, bounded by the set).
                let n_fav = ((k as f64) * 0.6) as usize;
                let n_fav = n_fav.min(self.machines[m].favorites.len());
                for _ in 0..n_fav {
                    let f = self.rng.gen_range(0..self.machines[m].favorites.len());
                    push(queries, self.machines[m].favorites[f]);
                }
                // Zipf exploration for the rest.
                let n_explore = k.saturating_sub(n_fav);
                for _ in 0..n_explore {
                    let u = self.rng.gen::<f64>();
                    let fqds = self.site_fqds.of(self.site_cdf.sample(u));
                    let d = fqds[self.rng.gen_range(0..fqds.len())];
                    push(queries, d);
                }
                // Long-tail uniques.
                let n_tail = poisson(&mut self.rng, self.cfg.tail_rate * mult.min(3.0));
                for _ in 0..n_tail {
                    let d = self.tail_domain();
                    push(queries, d);
                }
                // Scanners probe known blacklisted domains.
                if role == Role::Scanner {
                    let known: Vec<DomainId> = self
                        .commercial
                        .iter()
                        .filter(|&(_, added)| added <= day)
                        .map(|(d, _)| d)
                        .collect();
                    for _ in 0..100.min(known.len()) {
                        let d = known[self.rng.gen_range(0..known.len())];
                        push(queries, d);
                    }
                }
            }
        }

        // Malware traffic, regardless of role (an inactive machine can be
        // infected — the R1 pruning exception exists for exactly this).
        for j in 0..self.machines[m].infections.len() {
            let fam = self.machines[m].infections[j] as usize;
            if self.rng.gen::<f64>() < self.cfg.dormancy {
                continue;
            }
            let family = &self.families[fam];
            if family.active.is_empty() {
                continue;
            }
            // count = 1 + Geom(p), capped.
            let mut count = 1u32;
            while count < self.cfg.cnc_query_cap
                && self.rng.gen::<f64>() > self.cfg.cnc_query_geom_p
            {
                count += 1;
            }
            let count = (count as usize).min(family.active.len());
            // Sample `count` distinct active control domains.
            let idxs = &mut self.shuffle_scratch;
            idxs.clear();
            idxs.extend(0..family.active.len());
            idxs.shuffle(&mut self.rng);
            for &i in idxs.iter().take(count) {
                push(queries, family.active[i].id);
            }
        }
    }

    // ---------------------------------------------------------------
    // Malware lifecycle
    // ---------------------------------------------------------------

    fn family_lifecycles(&mut self, day: Day) {
        for f in 0..self.families.len() {
            // Retire expired domains (keep at least two alive).
            let mut k = 0;
            while k < self.families[f].active.len() {
                if self.families[f].active.len() > 2 && self.families[f].active[k].retire_on <= day
                {
                    self.families[f].active.swap_remove(k);
                } else {
                    k += 1;
                }
            }
            // Agility: periodically relocate to fresh names.
            let deficit = self.families[f]
                .target_active
                .saturating_sub(self.families[f].active.len());
            let mut spawn = deficit;
            if self.rng.gen::<f64>() < self.cfg.agility {
                spawn += self.rng.gen_range(1..=2);
            }
            for _ in 0..spawn {
                self.activate_cnc_domain(f as u32, day);
            }
        }
    }

    fn activate_cnc_domain(&mut self, family: u32, day: Day) {
        let fam = family as usize;
        let roll: f64 = self.rng.gen();
        let uses_fh = self.families[fam].uses_free_hosting;
        let n_free = self.cfg.free_hosting_e2lds.min(FREE_HOSTING_POOL.len());
        let (name, abused) = if uses_fh && n_free > 0 && roll < 0.10 {
            let zone = FREE_HOSTING_POOL[self.rng.gen_range(0..n_free)];
            (NameGen::abused_subdomain(&mut self.rng, zone), true)
        } else if roll < 0.45 {
            (NameGen::cnc_dyndns(&mut self.rng), false)
        } else {
            (NameGen::cnc_e2ld(&mut self.rng), false)
        };
        let id = self.table.intern(&name);
        let e2ld = self.table.e2ld_of(id);
        let kind = if abused {
            DomainKind::AbusedSubdomain {
                family,
                activated: day,
            }
        } else {
            DomainKind::Cnc {
                family,
                activated: day,
            }
        };
        self.truth.set_kind(id, kind);

        // Point the new name at the family's existing control servers —
        // domains relocate, servers persist. Occasionally a server rotates.
        if self.rng.gen::<f64>() < 0.15 {
            let p = self.families[fam].prefixes
                [self.rng.gen_range(0..self.families[fam].prefixes.len())];
            let fresh = p.host(self.rng.gen());
            self.families[fam].server_ips.push(fresh);
            if self.families[fam].server_ips.len() > 8 {
                self.families[fam].server_ips.remove(0);
            }
        }
        let n_ips = self.rng.gen_range(1..=3usize);
        let n_servers = self.families[fam].server_ips.len();
        let mut ips: Vec<Ipv4> = (0..n_ips)
            .map(|_| self.families[fam].server_ips[self.rng.gen_range(0..n_servers)])
            .collect();
        ips.sort_unstable();
        ips.dedup();

        let lifetime = if self.rng.gen::<f64>() < self.cfg.cnc_long_lived_prob {
            self.rng
                .gen_range(self.cfg.cnc_long_lifetime.0..=self.cfg.cnc_long_lifetime.1)
        } else {
            self.rng
                .gen_range(self.cfg.cnc_lifetime.0..=self.cfg.cnc_lifetime.1)
        };
        self.families[fam].active.push(CncDomain {
            id,
            e2ld,
            retire_on: day + lifetime,
            ips,
        });

        // Blacklisting destiny, decided at activation.
        if self.rng.gen::<f64>() < self.cfg.blacklist_coverage {
            let lag = 1 + exponential(&mut self.rng, self.cfg.blacklist_lag_mean) as u32;
            let commercial_day = day + lag;
            self.commercial.insert(id, commercial_day);
            if self.rng.gen::<f64>() < self.cfg.public_coverage {
                let extra = exponential(&mut self.rng, self.cfg.public_extra_lag_mean) as u32;
                self.public.insert(id, commercial_day + extra);
            }
        } else if self.rng.gen::<f64>() < self.cfg.public_independent {
            // The commercial vendor missed it; the community lists caught
            // it anyway.
            let lag = 1 + exponential(
                &mut self.rng,
                self.cfg.blacklist_lag_mean + self.cfg.public_extra_lag_mean,
            ) as u32;
            self.public.insert(id, day + lag);
        }
    }

    fn alloc_private_prefix(&mut self) -> Prefix24 {
        let k = self.next_private_prefix;
        self.next_private_prefix += 1;
        Prefix24::from_octets(45, (k / 250) as u8, (k % 250) as u8)
    }

    // ---------------------------------------------------------------
    // Resolution & history
    // ---------------------------------------------------------------

    fn resolve(&self, d: DomainId) -> Vec<Ipv4> {
        match self.truth.kind(d) {
            DomainKind::Cnc { .. } | DomainKind::AbusedSubdomain { .. } => {
                for fam in &self.families {
                    if let Some(c) = fam.active.iter().find(|c| c.id == d) {
                        return c.ips.clone();
                    }
                }
                // Retired control domain still queried: parked on one of the
                // shared bullet-proof prefixes.
                vec![self.shared_prefixes[d.index() % self.shared_prefixes.len()]
                    .host((d.0 % 250) as u8)]
            }
            DomainKind::BenignTail => vec![self.tail_ip(d)],
            DomainKind::Benign => {
                // Find the owning site via e2LD; fall back to a hash IP.
                let e2ld = self.table.e2ld_of(d);
                match self.site_by_e2ld.get(e2ld.index()) {
                    Some(&site) if site != u32::MAX => self.sites[site as usize].ips.clone(),
                    _ => {
                        vec![Prefix24::from_octets(19, 0, (d.0 % 200) as u8).host((d.0 % 250) as u8)]
                    }
                }
            }
        }
    }

    /// A long-tail FQD's one IP, hashed from its id onto its provider.
    fn tail_ip(&self, d: DomainId) -> Ipv4 {
        let (_, prefix) = self.tail_providers[d.index() % self.tail_providers.len()];
        prefix.host((d.0 % 250) as u8)
    }

    fn tail_domain(&mut self) -> DomainId {
        let slot = self.rng.gen_range(0..self.tail_slots.len());
        if let Some(d) = self.tail_slots[slot] {
            return d;
        }
        let provider = slot % self.tail_providers.len();
        let (e2ld, _) = self.tail_providers[provider];
        let name = NameGen::tail_fqd(&mut self.rng, self.table.e2ld_str(e2ld));
        let id = self.table.intern(&name);
        self.truth.set_kind(id, DomainKind::BenignTail);
        self.tail_slots[slot] = Some(id);
        id
    }

    /// Records background history for a light (warm-up) day: whitelisted
    /// sites are active daily, other benign sites most days, tails sparsely,
    /// and every alive control domain records activity and resolutions.
    fn record_background_history(&mut self, day: Day) {
        for (s, site) in self.sites.iter().enumerate() {
            let p = if site.whitelisted { 1.0 } else { 0.7 };
            if self.rng.gen::<f64>() <= p {
                for &d in self.site_fqds.of(s) {
                    self.activity.record(d, site.e2ld, day);
                    for &ip in &site.ips {
                        self.pdns.record(d, ip, day);
                    }
                }
            }
        }
        // Expected tail volume without per-machine loops.
        let expected_tails = (self.machines.len() as f64 * self.cfg.tail_rate) as usize;
        for _ in 0..expected_tails {
            let d = self.tail_domain();
            // What `resolve` answers for a tail, without its `Vec`.
            debug_assert_eq!(self.truth.kind(d), DomainKind::BenignTail);
            self.activity.record(d, self.table.e2ld_of(d), day);
            self.pdns.record(d, self.tail_ip(d), day);
        }
        self.record_control_domains(day);
    }

    /// Every alive control domain is active and resolves today, whether or
    /// not a victim queried it.
    fn record_control_domains(&mut self, day: Day) {
        for c in self.families.iter().flat_map(|f| &f.active) {
            self.activity.record(c.id, c.e2ld, day);
            for &ip in &c.ips {
                self.pdns.record(c.id, ip, day);
            }
        }
    }
}

// -------------------------------------------------------------------
// Small distribution helpers (rand_distr is not in the offline set).
// -------------------------------------------------------------------

/// Knuth's Poisson sampler (fine for small lambda).
fn poisson<R: Rng>(rng: &mut R, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k; // guard against pathological lambda
        }
    }
}

/// Exponential sample with the given mean.
fn exponential<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    -mean * u.ln()
}

fn pick<'a, T, R: Rng>(slice: &'a [T], rng: &mut R) -> Option<&'a T> {
    if slice.is_empty() {
        None
    } else {
        Some(&slice[rng.gen_range(0..slice.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IspConfig;

    #[test]
    fn world_builds_deterministically() {
        let a = IspNetwork::new(IspConfig::tiny(3));
        let b = IspNetwork::new(IspConfig::tiny(3));
        assert_eq!(a.table.len(), b.table.len());
        assert_eq!(a.commercial.len(), b.commercial.len());
        assert_eq!(a.truth.infected_count(), b.truth.infected_count());
    }

    #[test]
    fn infections_match_config_scale() {
        let w = IspNetwork::new(IspConfig::tiny(5));
        let inf = w.truth.infected_count();
        // Some draws land on proxies and are skipped; allow slack.
        assert!(inf > 15 && inf <= 32, "infected count {inf}");
    }

    #[test]
    fn full_day_produces_traffic_and_history() {
        let mut w = IspNetwork::new(IspConfig::tiny(7));
        let t = w.next_day();
        assert_eq!(t.day, Day(0));
        assert!(t.query_count() > 1_000);
        assert!(t.resolved_domain_count() > 100);
        assert!(w.pdns().len() > 100);
        assert!(w.activity().tracked_fqds() > 100);
        assert_eq!(w.today(), Day(1));
    }

    #[test]
    fn warm_up_advances_clock_and_history() {
        let mut w = IspNetwork::new(IspConfig::tiny(9));
        w.warm_up(5);
        assert_eq!(w.today(), Day(5));
        assert!(w.pdns().len() > 100);
    }

    #[test]
    fn infected_machines_query_control_domains() {
        let mut w = IspNetwork::new(IspConfig::tiny(11));
        let t = w.next_day();
        let mut hits = 0usize;
        for &(m, d) in &t.queries {
            if w.truth().is_malicious(d) {
                let owner = w.canonical_machine(m);
                assert!(
                    w.truth().is_infected(owner),
                    "benign machine {m} queried malicious domain"
                );
                hits += 1;
            }
        }
        assert!(hits > 10, "expected malware query traffic, got {hits}");
    }

    #[test]
    fn agility_creates_new_domains_over_time() {
        let mut w = IspNetwork::new(IspConfig::tiny(13));
        let before: usize = w.truth().malicious_domains().count();
        w.warm_up(20);
        let after: usize = w.truth().malicious_domains().count();
        assert!(after > before, "families must relocate to new domains");
    }

    #[test]
    fn blacklist_lags_activation() {
        let mut w = IspNetwork::new(IspConfig::tiny(15));
        w.warm_up(20);
        let mut lag_sum = 0u32;
        let mut n = 0u32;
        for (d, added) in w.commercial_blacklist().iter() {
            let activated = w
                .truth()
                .kind(d)
                .activated()
                .expect("blacklisted ⇒ malicious");
            assert!(added > activated, "blacklist addition must lag activation");
            lag_sum += added.days_since(activated);
            n += 1;
        }
        assert!(n > 20);
        assert!(lag_sum as f64 / n as f64 >= 2.0);
    }

    #[test]
    fn public_blacklist_is_noisy_subset() {
        let w = IspNetwork::new(IspConfig::tiny(17));
        let noise = w
            .public_blacklist()
            .iter()
            .filter(|&(d, _)| !w.truth().is_malicious(d))
            .count();
        assert_eq!(noise, w.config().public_noise);
    }

    #[test]
    fn whitelist_contains_free_hosting_zones() {
        let w = IspNetwork::new(IspConfig::tiny(19));
        let egloos = w.table().e2ld_id("egloos.example").expect("interned");
        assert!(w.whitelist().contains(egloos));
    }

    #[test]
    fn relocated_domains_reuse_family_servers() {
        let mut w = IspNetwork::new(IspConfig::tiny(27));
        w.warm_up(25);
        // Collect per-family IP sets over all malicious domains' history.
        use std::collections::{BTreeMap, HashMap, HashSet};
        let mut family_ips: HashMap<u32, HashSet<Ipv4>> = HashMap::new();
        let mut family_domains: BTreeMap<u32, usize> = BTreeMap::new();
        let window = segugio_model::DayWindow::new(Day(0), Day(25));
        for (d, fam) in w.truth().malicious_domains().collect::<Vec<_>>() {
            *family_domains.entry(fam).or_insert(0) += 1;
            family_ips
                .entry(fam)
                .or_default()
                .extend(w.pdns().resolved_ips(d, window));
        }
        // Server stickiness: families accumulate far fewer distinct IPs
        // than (domains x ips-per-domain) would suggest.
        for (fam, domains) in family_domains {
            if domains < 6 {
                continue;
            }
            let ips = family_ips[&fam].len();
            assert!(
                ips < domains * 2,
                "family {fam}: {domains} domains but {ips} distinct IPs — servers must be reused"
            );
        }
    }

    #[test]
    fn some_control_domains_are_long_lived() {
        let mut w = IspNetwork::new(IspConfig::tiny(29));
        w.warm_up(40);
        // Domains activated near day 0 that were still resolving after day
        // 30 exist thanks to the long-lived lifetime tail.
        let window = segugio_model::DayWindow::new(Day(30), Day(40));
        let survivors = w
            .truth()
            .malicious_domains()
            .filter(|&(d, _)| {
                w.truth().kind(d).activated() == Some(Day(0))
                    && !w.pdns().resolved_ips(d, window).is_empty()
            })
            .count();
        assert!(survivors > 0, "expected some long-lived control domains");
    }

    #[test]
    fn dhcp_churn_splits_identities() {
        let mut cfg = IspConfig::tiny(23);
        cfg.dhcp_churn = 0.5;
        let mut w = IspNetwork::new(cfg.clone());
        let t = w.next_day();
        let max_id = t.queries.iter().map(|&(m, _)| m.index()).max().unwrap();
        assert!(max_id >= cfg.machines, "expected ephemeral machine ids");
        // Every ephemeral id maps back to a real machine.
        for &(m, _) in &t.queries {
            assert!(w.canonical_machine(m) < cfg.machines);
        }
        // Churn never invents infections: malicious queries still trace to
        // truly infected machines.
        for &(m, d) in &t.queries {
            if w.truth().is_malicious(d) {
                assert!(w.truth().is_infected(w.canonical_machine(m)));
            }
        }
    }

    #[test]
    fn streamed_day_matches_next_day() {
        let mut whole = IspNetwork::new(IspConfig::tiny(31));
        let mut chunked = IspNetwork::new(IspConfig::tiny(31));
        let t = whole.next_day();
        let mut queries = Vec::new();
        let mut chunks = 0usize;
        let (day, resolutions) = chunked.next_day_streamed(64, |c| {
            chunks += 1;
            queries.extend_from_slice(c);
        });
        assert!(chunks > 1, "400 machines at chunk 64 must flush repeatedly");
        assert_eq!(t.day, day);
        assert_eq!(t.queries, queries);
        assert_eq!(t.resolutions, resolutions);
        // The history-store side effects are identical too.
        assert_eq!(whole.pdns().len(), chunked.pdns().len());
        assert_eq!(
            whole.activity().tracked_fqds(),
            chunked.activity().tracked_fqds()
        );
        assert_eq!(whole.today(), chunked.today());
    }

    #[test]
    fn helper_distributions() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(poisson(&mut rng, 0.0), 0);
        let mean: f64 = (0..2000)
            .map(|_| poisson(&mut rng, 3.0) as f64)
            .sum::<f64>()
            / 2000.0;
        assert!((mean - 3.0).abs() < 0.3);
        let e: f64 = (0..2000).map(|_| exponential(&mut rng, 5.0)).sum::<f64>() / 2000.0;
        assert!((e - 5.0).abs() < 0.8);
        assert_eq!(sample_cdf(&[0.2, 0.7, 1.0], 0.0), 0);
        assert_eq!(sample_cdf(&[0.2, 0.7, 1.0], 0.5), 1);
        assert_eq!(sample_cdf(&[0.2, 0.7, 1.0], 1.0), 2);
    }
}
