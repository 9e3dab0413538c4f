//! One module per reproduced table/figure.

pub mod ablation;
pub mod bp_comparison;
pub mod crossday;
pub mod crossfamily;
pub mod dataset;
pub mod early_detection;
pub mod fp_analysis;
pub mod notos_comparison;
pub mod performance;
pub mod public_blacklist;
pub mod robustness;
pub mod seed_sensitivity;

use segugio_core::{ClassifierKind, SegugioConfig};
use segugio_traffic::IspConfig;

/// Shared sizing for an experiment run: the two networks, warm-up length,
/// pipeline configuration and test-split fractions.
#[derive(Debug, Clone)]
pub struct Scale {
    /// First network (the paper's `ISP_1`).
    pub isp1: IspConfig,
    /// Second network (the paper's `ISP_2`).
    pub isp2: IspConfig,
    /// Light-simulation days before the first captured day (history
    /// build-up for the activity and pDNS stores).
    pub warmup: u32,
    /// Pipeline configuration: pruning, feature windows, classifier and
    /// parallelism.
    pub config: SegugioConfig,
    /// Fraction of known malware domains held out for testing.
    pub frac_test_malware: f64,
    /// Fraction of known benign domains held out for testing.
    pub frac_test_benign: f64,
    /// Seed for test-split sampling.
    pub seed: u64,
}

impl Scale {
    /// Small scale for integration tests: a few thousand machines, runs in
    /// seconds.
    pub fn small() -> Self {
        let mut config = SegugioConfig::default();
        if let ClassifierKind::Forest(f) = &mut config.classifier {
            f.n_trees = 40;
        }
        Scale {
            isp1: IspConfig::small(101),
            isp2: IspConfig {
                name: "small-ISP2".to_owned(),
                machines: 4_000,
                ..IspConfig::small(202)
            },
            warmup: 20,
            config,
            frac_test_malware: 0.5,
            frac_test_benign: 0.5,
            seed: 0xE7A1,
        }
    }

    /// Paper-shaped scale: the `ISP1`/`ISP2` presets (tens of thousands of
    /// machines). Used by the benches and examples.
    pub fn paper() -> Self {
        Scale {
            isp1: IspConfig::isp1(1001),
            isp2: IspConfig::isp2(2002),
            ..Scale::small()
        }
    }

    /// Tiny scale for unit tests and doc tests.
    pub fn tiny() -> Self {
        let mut s = Scale::small();
        s.isp1 = IspConfig::tiny(11);
        s.isp2 = IspConfig::tiny(22);
        s.warmup = 16;
        if let ClassifierKind::Forest(f) = &mut s.config.classifier {
            f.n_trees = 20;
        }
        s
    }
}
