//! DMA ownership under fault injection and chaos.
//!
//! Faults and chaos drive the CAB through the paths where buffer ownership
//! is easiest to get wrong: drops force retransmits from outboard memory,
//! CAB faults force the PIO and software fallbacks, and chaos actions wedge
//! and heal whole adaptors. Each case here runs a full ttcp transfer under
//! one fault regime and checks that it completes (or, under chaos, that
//! the end-to-end oracle passes). With `--features dma-check` it also
//! checks that every CAB ownership journal is clean: no engine touched a
//! buffer while another engine or the host still owned it, and the
//! journal actually saw traffic.

use outboard::host::MachineConfig;
use outboard::sim::{ChaosSchedule, Dur, Time};
use outboard::stack::StackConfig;
use outboard::testbed::experiment::build_ttcp_world;
use outboard::testbed::{run_chaos, ExperimentConfig, World, DEFAULT_LIVENESS_BUDGET};

/// One fault regime of the soak matrix.
#[derive(Clone)]
struct FaultCase {
    name: &'static str,
    drop_p: f64,
    corrupt_p: f64,
    reorder_p: f64,
    dup_p: f64,
    cab_alloc_fail_p: f64,
    cab_sdma_fail_p: f64,
    cab_mdma_fail_p: f64,
    cab_csum_error_p: f64,
}

impl FaultCase {
    const fn clean(name: &'static str) -> FaultCase {
        FaultCase {
            name,
            drop_p: 0.0,
            corrupt_p: 0.0,
            reorder_p: 0.0,
            dup_p: 0.0,
            cab_alloc_fail_p: 0.0,
            cab_sdma_fail_p: 0.0,
            cab_mdma_fail_p: 0.0,
            cab_csum_error_p: 0.0,
        }
    }
}

/// Link faults, CAB faults, and everything at once — each severe enough to
/// exercise retransmission and fallback paths, mild enough that TCP still
/// completes the transfer inside the deadline.
fn fault_matrix() -> Vec<FaultCase> {
    vec![
        FaultCase::clean("baseline"),
        FaultCase {
            drop_p: 0.02,
            ..FaultCase::clean("drop")
        },
        FaultCase {
            corrupt_p: 0.02,
            ..FaultCase::clean("corrupt")
        },
        FaultCase {
            reorder_p: 0.02,
            dup_p: 0.02,
            ..FaultCase::clean("reorder+dup")
        },
        FaultCase {
            cab_alloc_fail_p: 0.05,
            ..FaultCase::clean("cab-alloc-fail")
        },
        FaultCase {
            cab_sdma_fail_p: 0.02,
            cab_mdma_fail_p: 0.02,
            ..FaultCase::clean("cab-dma-fail")
        },
        FaultCase {
            cab_csum_error_p: 0.02,
            ..FaultCase::clean("cab-csum-error")
        },
        FaultCase {
            drop_p: 0.01,
            corrupt_p: 0.01,
            reorder_p: 0.01,
            dup_p: 0.01,
            cab_alloc_fail_p: 0.01,
            cab_sdma_fail_p: 0.01,
            cab_mdma_fail_p: 0.01,
            cab_csum_error_p: 0.01,
            ..FaultCase::clean("everything")
        },
    ]
}

fn config_for(case: &FaultCase, seed: u64) -> ExperimentConfig {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 16 * 1024);
    cfg.total_bytes = 512 * 1024;
    cfg.seed = seed;
    cfg.verify = true;
    cfg.drop_p = case.drop_p;
    cfg.corrupt_p = case.corrupt_p;
    cfg.reorder_p = case.reorder_p;
    cfg.dup_p = case.dup_p;
    cfg.cab_alloc_fail_p = case.cab_alloc_fail_p;
    cfg.cab_sdma_fail_p = case.cab_sdma_fail_p;
    cfg.cab_mdma_fail_p = case.cab_mdma_fail_p;
    cfg.cab_csum_error_p = case.cab_csum_error_p;
    cfg
}

/// Drive a built world to transfer completion (or the deadline) — the same
/// loop `run_ttcp` uses, kept inline so the `World` stays available for
/// the journal checks afterwards.
fn drive(w: &mut World, total_bytes: usize) -> bool {
    let deadline = Time::ZERO + Dur::from_secs_f64((total_bytes as f64 * 8.0 / 1e6).max(30.0));
    w.run_while(deadline, |w| {
        !(w.hosts[0].apps[0]
            .as_ref()
            .map(|a| a.finished())
            .unwrap_or(true)
            && w.hosts[1].apps[0]
                .as_ref()
                .map(|a| a.finished())
                .unwrap_or(true))
    })
}

/// Every CAB ownership journal in the world must be clean (and must have
/// actually observed traffic). Compiled out without `dma-check`: the
/// completion and oracle checks still run, and CI's dma-check step arms
/// this one.
#[cfg(feature = "dma-check")]
fn assert_journals_clean(w: &mut World, name: &str) {
    for (h, host) in w.hosts.iter_mut().enumerate() {
        for iface in &mut host.kernel.ifaces {
            if let Some(ci) = iface.cab() {
                let violations = ci.cab.ownership_violations();
                assert!(
                    violations.is_empty(),
                    "case {name}: host {h} dma-check journal recorded {} \
                     ownership violations, first: {}",
                    violations.len(),
                    violations[0],
                );
                assert!(
                    ci.cab.ownership_transitions() > 0,
                    "case {name}: host {h} journal saw no transfers — the \
                     dma-check instrumentation is not wired up",
                );
            }
        }
    }
}

#[cfg(not(feature = "dma-check"))]
fn assert_journals_clean(_w: &mut World, _name: &str) {}

#[test]
fn fault_matrix_journals_stay_clean() {
    for (i, case) in fault_matrix().into_iter().enumerate() {
        let cfg = config_for(&case, 0xC0FFEE + i as u64);
        let mut w = build_ttcp_world(&cfg);
        let done = drive(&mut w, cfg.total_bytes);
        // Fault regimes are tuned so TCP always finishes; a hang here is a
        // real robustness regression, not a flaky tuning artifact.
        assert!(done, "case {}: transfer did not complete", case.name);
        assert_journals_clean(&mut w, case.name);
    }
}

#[test]
fn chaos_schedules_pass_the_oracle() {
    // The chaos engine wedges/heals adaptors and partitions links on top
    // of a fault-free transfer; the oracle checks integrity and liveness.
    for seed in [3u64, 11] {
        let cfg = config_for(&FaultCase::clean("chaos"), seed);
        let schedule = ChaosSchedule::generate(seed, 10, 2);
        let outcome = run_chaos(&cfg, &schedule, DEFAULT_LIVENESS_BUDGET);
        assert!(
            outcome.passed(),
            "chaos seed {seed}: oracle violations: {:?}",
            outcome.violations
        );
    }
}

#[test]
fn chaos_world_journals_stay_clean() {
    // Same journal check as the fault matrix, but with the chaos driver
    // installed: wedge/heal cycles and board resets must not leave an
    // engine working on a buffer the host or another engine owns.
    for seed in [5u64, 23] {
        let cfg = config_for(&FaultCase::clean("chaos-world"), seed);
        let schedule = ChaosSchedule::generate(seed, 8, 2);
        let mut w = build_ttcp_world(&cfg);
        w.install_chaos(&schedule);
        drive(&mut w, cfg.total_bytes);
        assert_journals_clean(&mut w, "chaos-world");
    }
}
