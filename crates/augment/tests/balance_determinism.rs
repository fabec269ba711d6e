//! `Augmenter::balance` fans classes out across the worker pool,
//! largest class first. Its output must not depend on the pool width,
//! and it must equal the serial loop it replaces: the dataset's
//! originals followed by `augment_class` for every under-target defect
//! class, concatenated in `DefectClass::ALL` order.

use augment::{AugmentConfig, Augmenter};
use nn::pool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wafermap::gen::{generate, GenConfig, Sample};
use wafermap::{Dataset, DefectClass};

const GRID: usize = 16;

/// Defect classes whose original counts run against `DefectClass::ALL`
/// order (the largest under-target class comes last, two classes tie,
/// and `Random` is absent), plus a `None` majority and one class
/// already at the target.
fn dataset() -> Dataset {
    let counts = [
        (DefectClass::Center, 2),
        (DefectClass::Donut, 3),
        (DefectClass::EdgeLoc, 3),
        (DefectClass::EdgeRing, 5),
        (DefectClass::Location, 10),
        (DefectClass::NearFull, 6),
        (DefectClass::Scratch, 9),
        (DefectClass::None, 12),
    ];
    let cfg = GenConfig::new(GRID);
    let mut rng = StdRng::seed_from_u64(31);
    let mut ds = Dataset::new(GRID);
    for (class, count) in counts {
        for _ in 0..count {
            ds.push(Sample::original(generate(class, &cfg, &mut rng), class));
        }
    }
    ds
}

fn augmenter() -> Augmenter {
    Augmenter::new(AugmentConfig::new(10).with_channels([4, 4, 4]).with_ae_epochs(2), 17)
}

#[test]
fn balance_is_identical_at_any_pool_width_and_matches_the_serial_loop() {
    let dataset = dataset();
    let augmenter = augmenter();

    let mut serial = dataset.clone();
    let counts = dataset.class_counts();
    for class in DefectClass::ALL {
        if class.is_defect() && counts[class.index()] < augmenter.config().target {
            serial.extend(augmenter.augment_class(&dataset, class));
        }
    }
    assert!(serial.len() > dataset.len(), "the case must generate synthetics");

    for limit in [1, 2, 7] {
        pool::set_thread_limit(limit);
        let balanced = augmenter.balance(&dataset);
        assert_eq!(balanced, serial, "balance at pool width {limit}");
    }
    pool::set_thread_limit(pool::default_thread_limit());
}
