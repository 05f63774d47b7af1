//! Micro-benchmarks over the substrate: checksum throughput, mbuf chain
//! operations, CAB engine request rate, HOL simulation slots, VM and
//! header-parsing costs, and one end-to-end figure point per stack (small
//! transfer so `cargo bench` stays quick). Each case prints its mean time
//! per iteration from `outboard_bench::timing`.

use outboard_bench::timing::{measure_ns, Measurement};
use outboard_cab::{Cab, CabConfig, HolSim, MacMode, SdmaTx, SgEntry};
use outboard_host::{HostMem, MachineConfig, VmSystem};
use outboard_mbuf::{Chain, Mbuf, TaskId, UioDesc, UioRegion};
use outboard_sim::Time;
use outboard_stack::StackConfig;
use outboard_taxonomy as tax;
use outboard_testbed::{run_ttcp, ExperimentConfig};
use outboard_wire::checksum::Accumulator;
use outboard_wire::{Ipv4Header, TcpHeader};
use std::hint::black_box;

/// Iterations per case unless the case says otherwise.
const ITERS: u64 = 20;

fn fmt_dur(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Print one case; `bytes` per iteration adds a MiB/s rate.
fn report(name: &str, m: Measurement, bytes: Option<u64>) {
    let rate = match bytes {
        Some(n) if m.per_iter_ns > 0.0 => format!(
            "  ({:.1} MiB/s)",
            n as f64 / (1024.0 * 1024.0) / (m.per_iter_ns / 1e9)
        ),
        _ => String::new(),
    };
    println!(
        "{name:<40} {:>12}/iter  [{} iters]{rate}",
        fmt_dur(m.per_iter_ns),
        m.iters
    );
}

fn bench_checksum() {
    for size in [64usize, 1500, 32 * 1024] {
        let data: Vec<u8> = (0..size).map(|i| i as u8).collect();
        let m = measure_ns(ITERS, || {
            let mut acc = Accumulator::new();
            acc.add_bytes(black_box(&data));
            black_box(acc.finish());
        });
        report(
            &format!("checksum/ones_complement_{size}"),
            m,
            Some(size as u64),
        );
    }
}

fn uio_chain() -> Chain {
    let mut chain = Chain::new();
    for i in 0..16 {
        chain.append(Mbuf::uio(UioDesc {
            region: UioRegion {
                task: TaskId(1),
                base: 0,
            },
            off: i * 32 * 1024,
            len: 32 * 1024,
            counter: None,
        }));
    }
    chain
}

fn bench_mbuf_chain() {
    let chain = uio_chain();
    let m = measure_ns(ITERS, || {
        black_box(chain.copy_range(100_000, 32 * 1024));
    });
    report("mbuf/copy_range_512k_chain", m, None);
    // The chain is rebuilt inside the timed loop, so the figure includes
    // its construction.
    let m = measure_ns(ITERS, || {
        black_box(uio_chain().split_front(100_000));
    });
    report("mbuf/split_front_512k_chain", m, None);
}

fn bench_hol() {
    let m = measure_ns(ITERS, || {
        black_box(HolSim::new(16, MacMode::Fifo, 42).run(100));
    });
    report("hol_16x16_100slots", m, None);
}

fn bench_fig5_point() {
    for (name, single) in [("unmodified", false), ("single_copy", true)] {
        let stack = if single {
            let mut s = StackConfig::single_copy();
            s.force_single_copy = true;
            s
        } else {
            StackConfig::unmodified()
        };
        let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
        cfg.total_bytes = 1024 * 1024;
        cfg.verify = false;
        let m = measure_ns(10, || {
            let m = run_ttcp(&cfg);
            assert!(m.completed);
            black_box(m.throughput_mbps);
        });
        report(&format!("end_to_end/ttcp_1mb_64k_{name}"), m, None);
    }
}

fn bench_vm_ops() {
    let mut vm = VmSystem::new(MachineConfig::alpha_3000_400(), false);
    let m = measure_ns(ITERS, || {
        let cost = vm.prepare(TaskId(1), 0, 32 * 1024);
        let cost2 = vm.release(TaskId(1), 0, 32 * 1024);
        black_box((cost, cost2));
    });
    report("vm_prepare_release_32k", m, None);
}

fn bench_taxonomy() {
    let m = measure_ns(ITERS, || {
        let mut total = 0u32;
        for (api, csum) in tax::table_rows() {
            for a in tax::adaptor_columns() {
                total += tax::cell_cpu_accesses(api, csum, a);
            }
        }
        black_box(total);
    });
    report("taxonomy_full_table", m, None);
}

fn bench_wire_parse() {
    let ip = Ipv4Header::new(
        "10.0.0.1".parse().unwrap(),
        "10.0.0.2".parse().unwrap(),
        6,
        1000,
        7,
    );
    let mut buf = ip.build().to_vec();
    buf.resize(1020, 0);
    let m = measure_ns(ITERS, || {
        black_box(Ipv4Header::parse(black_box(&buf)).unwrap());
    });
    report("ipv4_parse", m, None);
    let mut th = TcpHeader::new(1, 2, 3, 4, outboard_wire::TcpFlags::SYN);
    th.mss = Some(32728);
    th.window_scale = Some(4);
    let tb = th.build();
    let m = measure_ns(ITERS, || {
        black_box(TcpHeader::parse(black_box(&tb)).unwrap());
    });
    report("tcp_parse_with_options", m, None);
}

fn bench_sdma() {
    let mut cab = Cab::new(1, CabConfig::default());
    let mut mem = HostMem::new();
    mem.create_region(TaskId(1), 0, 64 * 1024);
    let mut now = Time::ZERO;
    let m = measure_ns(ITERS, || {
        let pkt = cab.alloc_packet(32 * 1024).expect("netmem");
        let ev = cab
            .sdma_tx(
                SdmaTx {
                    packet: pkt,
                    sg: vec![SgEntry::User {
                        task: TaskId(1),
                        vaddr: 0,
                        len: 32 * 1024,
                    }],
                    csum: None,
                    reuse_body_csum: false,
                    interrupt_on_complete: false,
                    token: 0,
                },
                now,
                &mem,
            )
            .unwrap();
        now = ev.at();
        cab.free_packet(pkt, now);
        black_box(now);
    });
    report("cab_sdma_tx_32k", m, None);
}

fn main() {
    bench_checksum();
    bench_mbuf_chain();
    bench_hol();
    bench_fig5_point();
    bench_vm_ops();
    bench_taxonomy();
    bench_wire_parse();
    bench_sdma();
}
