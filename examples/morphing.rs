//! The morphable-memory walkthrough: an FF subarray serving as normal
//! memory, morphing into an accelerator (§III-A2 protocol), computing,
//! and morphing back with no data loss — plus the OS-side policy that
//! decides when to release FF mats under page-miss pressure (§IV-C).
//!
//! Run with: `cargo run --release --example morphing`

use prime::core::BankController;
use prime::mem::{
    BufAddr, Command, FfAddr, FfReservationMap, MatAddr, MatFunction, MorphDecision,
    MorphPolicy, PageMissTracker,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut ctrl = BankController::new(1, 2, 4096, 8192);
    let mat = MatAddr { subarray: 0, mat: 0 };

    // Phase 1: the FF subarray is ordinary memory holding user data.
    let user_data: Vec<bool> = (0..256).map(|i| (i * 7) % 3 == 0).collect();
    ctrl.mat_mut(mat).write_memory_row(17, &user_data)?;
    ctrl.mat_mut(mat).write_memory_row(400, &user_data)?;
    println!("memory mode: user data stored in FF subarray rows 17 and 400");

    // Phase 2: morph to computation (§III-A2): the controller migrates
    // the stored data to Mem-subarray space, then weights are programmed.
    ctrl.morph_to_compute(0)?;
    println!("morphing: data migrated, mats in weight-programming mode");
    ctrl.mat_mut(mat).program_composed(&[90, -60, 45, 120, -30, 15], 3, 2)?;
    ctrl.start_compute(0);
    println!("morphing: weights programmed, subarray in computation mode");

    // Phase 3: drive the Table I command flow for one computation.
    ctrl.buffer_mut().store(BufAddr(0), &[40, 8, 56])?;
    ctrl.execute(Command::Load {
        from: BufAddr(0),
        to: FfAddr { mat, offset: 0 },
        bytes: 24,
    })?;
    let out = ctrl.compute_mat(mat)?;
    ctrl.execute(Command::Store {
        from: FfAddr { mat, offset: 0 },
        to: BufAddr(64),
        bytes: 16,
    })?;
    println!("computation: inputs [40, 8, 56] -> outputs {out:?}");

    // Phase 4: wrap up — back to memory mode, data restored.
    ctrl.morph_to_memory(0)?;
    let restored = ctrl.mat(mat).read_memory_row(17, 256)?;
    assert_eq!(restored, user_data, "morphing must not lose data");
    println!("wrap-up: memory mode restored, user data intact");
    println!(
        "\ncommand log ({} issued, {} most recent kept):",
        ctrl.commands_issued(),
        ctrl.log().len()
    );
    for cmd in ctrl.log() {
        println!("  {cmd}");
    }

    // Phase 5: the OS runtime policy (§IV-C). Under memory pressure with
    // idle FF mats, reserved space is released back to normal memory.
    let policy = MorphPolicy::prime_default();
    let mut tracker = PageMissTracker::new(100);
    let mut reservations = FfReservationMap::new(128);
    reservations.reserve(8)?;
    for i in 0..100 {
        tracker.record(i % 10 == 0); // 10 % page miss rate
    }
    let decision = policy.decide(tracker.miss_rate(), reservations.utilization());
    println!(
        "\nOS: miss rate {:.0}%, FF utilization {:.1}% -> {:?}",
        100.0 * tracker.miss_rate(),
        100.0 * reservations.utilization(),
        decision
    );
    if decision == MorphDecision::ReleaseToMemory {
        let released = reservations.release_idle(8);
        println!(
            "OS: released {} idle FF mats back to normal memory ({} bytes reclaimed)",
            released.len(),
            reservations.released_bytes(16 * 1024)
        );
    }
    // Keep the controller's mats consistent with the walkthrough's story.
    assert_eq!(ctrl.mat(mat).function(), MatFunction::Memory);
    Ok(())
}
