//! Proves a model version is stored once however many clients are sent it.
//!
//! A byte-counting global allocator is armed around a start-up broadcast
//! plus one reply per client at the same model version, under the delta
//! codec (so every send also records the model in that client's reference
//! history), and then around the server's next step on the model.
//!
//! This file intentionally holds a single `#[test]` so no other test can
//! allocate concurrently while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use spyker_core::ingest::UpdateIngest;
use spyker_core::{CodecConfig, ParamVec, SpykerConfig};

mod support;
use support::MockEnv;

struct CountingAlloc;

static BYTES: AtomicUsize = AtomicUsize::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes allocated while `f` runs.
fn allocated_by(f: impl FnOnce()) -> usize {
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    BYTES.load(Ordering::SeqCst)
}

#[test]
fn a_model_version_is_stored_once_however_many_clients_hold_it() {
    const DIM: usize = 65_536;
    const MODEL_BYTES: usize = 4 * DIM;
    const CLIENTS: usize = 32;

    let codec = CodecConfig::parse("delta").expect("valid spec");
    let cfg = SpykerConfig::paper_defaults(CLIENTS, 1).with_codec(codec);
    let clients: Vec<usize> = (1..=CLIENTS).collect();
    let mut ingest = UpdateIngest::from_config(clients.clone(), &cfg);
    let mut env = MockEnv::new(0, CLIENTS + 1);
    let mut model = ParamVec::from_vec((0..DIM).map(|i| (i % 97) as f32 - 48.0).collect());
    let target = ParamVec::zeros(DIM);

    // 64 messages and 32 history entries, all of one version: bookkeeping
    // only (the message log, the history maps, counter names) — not even
    // one copy of the model, where every send used to make two.
    let sends = allocated_by(|| {
        ingest.broadcast(&mut env, &model, 0.0);
        for &client in &clients {
            ingest.reply(&mut env, client, &model, 0.0);
        }
    });
    assert_eq!(env.sent.len(), 2 * CLIENTS);
    assert!(
        sends < MODEL_BYTES,
        "{} sends of one model version allocated {sends} bytes (one model is {MODEL_BYTES})",
        2 * CLIENTS
    );

    // The server's next step writes to a model those handles still refer
    // to: that is the one copy this version ever gets.
    let step = allocated_by(|| model.lerp_toward(&target, 0.5));
    assert!(
        (MODEL_BYTES..MODEL_BYTES + 128).contains(&step),
        "first step after the sends allocated {step} bytes (one model is {MODEL_BYTES})"
    );
    // Nothing holds the new version yet, so the step after it is in place.
    let next = allocated_by(|| model.lerp_toward(&target, 0.5));
    assert_eq!(next, 0, "a step on an unshared model allocated");
}
