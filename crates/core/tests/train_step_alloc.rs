//! Heap bytes allocated by one steady-state training step.
//!
//! A counting global allocator measures one Table I batch-32 step at
//! grid 32 — forward, selective loss, backward, Adam — after warm-up
//! steps have grown every scratch buffer. The step must allocate at
//! most [`CEILING_BYTES`]. What remains is the layers' returned
//! tensors (each layer hands back a fresh output or input-gradient
//! tensor), the pool's per-region shard claim flags, and small
//! per-call vectors; the fused conv blocks keep the full-resolution
//! conv activations, ReLU masks and pool argmaxes out of it.
//!
//! This file holds a single test on purpose: the counter is
//! process-global, so a concurrently running test would add its own
//! allocations to the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nn::optim::Adam;
use nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selective::{SelectiveConfig, SelectiveLoss, SelectiveModel, SelectiveScratch};

/// Steady-state byte ceiling for one batch-32 step.
const CEILING_BYTES: u64 = 8 << 20;

/// Requested bytes of every allocation and reallocation so far.
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the only
// addition is a relaxed atomic add, which neither allocates nor
// touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn steady_state_train_step_stays_under_byte_ceiling() {
    const BATCH: usize = 32;
    let config = SelectiveConfig::for_grid(32);
    let mut model = SelectiveModel::new(&config, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let images = Tensor::randn(&[BATCH, 1, 32, 32], 1.0, &mut rng);
    let labels: Vec<usize> = (0..BATCH).map(|i| i % config.n_classes).collect();
    let weights = vec![1.0f32; BATCH];
    let loss = SelectiveLoss::new(0.5);
    let mut scratch = SelectiveScratch::default();
    let mut adam = Adam::new(1e-3);

    let mut step = || {
        let (logits, g) = model.forward(&images);
        let (_, grad_logits, grad_g) =
            loss.compute_scratch(&logits, &g, &labels, &weights, &mut scratch);
        model.zero_grad();
        model.backward(grad_logits, grad_g);
        model.step(&mut adam);
    };
    for _ in 0..2 {
        step();
    }
    let before = BYTES.load(Ordering::Relaxed);
    step();
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    assert!(
        bytes <= CEILING_BYTES,
        "one steady-state batch-{BATCH} train step allocated {bytes} B (ceiling {CEILING_BYTES} B)"
    );
}
