//! Seeded inputs and the fixed settings every workload shares.

use faultsim::FaultPlan;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use selective::TrainConfig;
use serve::{RawWafer, ServeConfig};
use wafermap::gen::SyntheticWm811k;
use wafermap::shift::{shifted_dataset, ShiftConfig};
use wafermap::{Dataset, DefectClass};

/// Wafer die grid (Table I input).
pub const GRID: usize = 32;
/// Fraction of the WM-811K class counts generated (869 train / 218 test).
pub const SCALE: f64 = 0.02;
/// Algorithm 1 per-class target `T` (8000 scaled by [`SCALE`]).
pub const AUGMENT_TARGET: usize = 160;
/// Auto-encoder filter counts.
pub const AE_CHANNELS: [usize; 3] = [8, 8, 8];
/// Auto-encoder training epochs per class.
pub const AE_EPOCHS: usize = 8;
/// Target coverage `c0` for training and for τ calibration.
pub const COVERAGE: f64 = 0.5;
/// Wafers per fab lot.
pub const LOT: usize = 25;
/// Distinct lots in the `serve_lots` pool (about 6 MB of raw pixels).
const LOT_POOL: usize = 64;
/// Lots in the pool drawn from the severely shifted distribution (15%).
const SHIFTED_LOTS: usize = 10;
/// Lots in the pool carrying one poisoned wafer (5%).
const POISONED_LOTS: usize = 3;

/// Sub-seed tags: every input is derived from the run's `--seed`.
pub mod tag {
    pub const DATA: u64 = 1;
    pub const CALIBRATION: u64 = 2;
    pub const AUGMENT: u64 = 3;
    pub const INIT: u64 = 4;
    pub const SHUFFLE: u64 = 5;
    pub const STREAM: u64 = 6;
    pub const SHIFT: u64 = 7;
    pub const POISON: u64 = 8;
    pub const LOTS: u64 = 9;
    pub const SCHEDULE: u64 = 10;
    pub const REPLAY: u64 = 11;
    pub const EVALUATION: u64 = 12;
}

/// Derive an independent sub-seed (splitmix64 finaliser).
pub fn seed_for(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's training settings at `epochs` epochs (batch 32).
pub fn train_config(seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 32,
        learning_rate: 3e-3,
        target_coverage: COVERAGE as f32,
        lambda: 0.5,
        alpha: 0.5,
        seed: seed_for(seed, tag::SHUFFLE),
    }
}

/// Default serving configuration (micro-batch 64), with the coverage
/// monitor held to the coverage τ is calibrated to.
pub fn serve_config() -> ServeConfig {
    ServeConfig { target_coverage: COVERAGE, ..ServeConfig::default() }
}

/// The held-out calibration split τ is calibrated on.
pub fn calibration_split(seed: u64) -> Dataset {
    SyntheticWm811k::new(GRID).scale(SCALE).seed(seed_for(seed, tag::CALIBRATION)).build().1
}

/// The held-out split accuracy is measured on (about 1,090 wafers).
pub fn evaluation_split(seed: u64) -> Dataset {
    SyntheticWm811k::new(GRID).scale(0.1).seed(seed_for(seed, tag::EVALUATION)).build().1
}

/// One request of `serve_lots`: 25 raw wafers.
pub struct Lot {
    pub wafers: Vec<RawWafer>,
    /// Index of the wafer poisoned by `faultsim`, if any.
    pub poisoned: Option<usize>,
}

/// In-distribution wafers held out from training, shuffled.
pub fn in_distribution(seed: u64) -> Vec<(RawWafer, DefectClass)> {
    let (pool, _) =
        SyntheticWm811k::new(GRID).scale(0.04).seed(seed_for(seed, tag::STREAM)).build();
    let mut wafers: Vec<(RawWafer, DefectClass)> =
        pool.samples().iter().map(|s| (RawWafer::from_map(&s.map), s.label)).collect();
    wafers.shuffle(&mut StdRng::seed_from_u64(seed_for(seed, tag::STREAM)));
    wafers
}

/// The `serve_lots` lot pool: mostly in-distribution lots, 15% from
/// `ShiftConfig::severe()`, 5% with one wafer poisoned.
pub fn lot_pool(seed: u64) -> Vec<Lot> {
    let clean = in_distribution(seed);
    let shifted = shifted_dataset(
        GRID,
        (SHIFTED_LOTS * LOT).div_ceil(DefectClass::COUNT),
        &ShiftConfig::severe(),
        seed_for(seed, tag::SHIFT),
    );
    let mut shifted: Vec<(RawWafer, DefectClass)> =
        shifted.samples().iter().map(|s| (RawWafer::from_map(&s.map), s.label)).collect();
    let mut rng = StdRng::seed_from_u64(seed_for(seed, tag::LOTS));
    shifted.shuffle(&mut rng);

    let mut kinds: Vec<u8> = (0..LOT_POOL)
        .map(|i| match i {
            i if i < SHIFTED_LOTS => 1,
            i if i < SHIFTED_LOTS + POISONED_LOTS => 2,
            _ => 0,
        })
        .collect();
    kinds.shuffle(&mut rng);
    let mut plan = FaultPlan::new(seed_for(seed, tag::POISON));
    let (mut clean_at, mut shifted_at) = (0, 0);
    kinds
        .into_iter()
        .map(|kind| {
            let (source, at) =
                if kind == 1 { (&shifted, &mut shifted_at) } else { (&clean, &mut clean_at) };
            let chosen = &source[*at..*at + LOT];
            *at += LOT;
            let mut wafers: Vec<RawWafer> = chosen.iter().map(|(w, _)| w.clone()).collect();
            let poisoned = (kind == 2).then(|| {
                let index = rng.gen_range(0..LOT);
                let _ = plan.poison_pixels(&mut wafers[index].pixels);
                index
            });
            Lot { wafers, poisoned }
        })
        .collect()
}

/// Seeded lot indices into a pool of `pool` lots; `salt` tells the
/// orders of different phases apart.
pub fn lot_order(seed: u64, salt: u64, pool: usize, count: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed_for(seed, tag::LOTS) ^ salt);
    (0..count).map(|_| rng.gen_range(0..pool)).collect()
}

/// Poisson arrival times in seconds: `count` arrivals at `rate` per second.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed_for(seed, tag::SCHEDULE) ^ 1);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}
