//! Microbenchmarks of the simulation substrate: raw event-loop throughput,
//! the processor-sharing CPU, the soft pool, the GC model, and a short
//! end-to-end system run. These guard the performance that makes the
//! 200+-trial figure sweeps tractable.
//!
//! Timing uses a plain wall-clock harness (no external benchmark framework,
//! so the workspace builds offline): each benchmark is warmed up once and
//! then the best of `REPS` timed repetitions is reported — the minimum is
//! the standard low-noise estimator for deterministic workloads.

use simcore::{ShardIo, ShardModel, ShardedEngine, SimTime};
use std::hint::black_box;
use std::time::Instant;

const REPS: u32 = 5;

/// Time `body` REPS times (after one warm-up) and report the best run.
fn bench(name: &str, elements: u64, mut body: impl FnMut()) {
    body(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        body();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let rate = elements as f64 / best;
    println!(
        "{name:>32}  {:>10.3} ms   {:>12.0} elem/s",
        best * 1e3,
        rate
    );
}

struct PingPong {
    remaining: u64,
    checksum: u64,
}

enum Ev {
    Ping,
}

impl ShardModel for PingPong {
    type Event = Ev;
    type Obs = ();
    fn handle(&mut self, now: SimTime, _ev: Ev, io: &mut ShardIo<'_, Ev, ()>) {
        // Data-dependent delays keep the optimizer from collapsing the event
        // chain into a closed form: each delay depends on the running
        // checksum, which depends on every prior event time.
        self.checksum = self
            .checksum
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(now.as_micros());
        if self.remaining > 0 {
            self.remaining -= 1;
            io.schedule_after(SimTime::from_micros(1 + (self.checksum & 7)), Ev::Ping);
        }
    }
    fn ingest(&mut self, _: SimTime, _: ()) {}
    fn event_label(_: &Ev) -> &'static str {
        "ping"
    }
}

fn bench_engine() {
    const EVENTS: u64 = 100_000;
    bench("event_chain_100k", EVENTS, || {
        let model = PingPong {
            remaining: black_box(EVENTS),
            checksum: black_box(1),
        };
        let mut e = ShardedEngine::new(vec![model], SimTime::ZERO, 1024);
        e.schedule(0, SimTime::ZERO, Ev::Ping);
        e.run_until(SimTime::MAX);
        black_box((e.events_processed(), e.model(0).checksum));
    });
}

fn bench_ps_cpu() {
    use resources::{CpuConfig, PsCpu};
    const JOBS: u64 = 10_000;
    bench("ps_cpu/submit_drain_10k", JOBS, || {
        let mut cpu = PsCpu::new(CpuConfig::default());
        let mut now = SimTime::ZERO;
        for j in 0..JOBS {
            cpu.submit(now, j, 0.001);
            now += SimTime::from_micros(500);
        }
        while let Some(next) = cpu.next_completion(now) {
            now = next;
            black_box(cpu.pop_due(now));
        }
        black_box(cpu.work_done());
    });
}

fn bench_soft_pool() {
    use resources::SoftPool;
    const OPS: u64 = 10_000;
    bench("soft_pool/acquire_release", OPS * 2, || {
        let mut pool = SoftPool::new("bench", 16);
        let mut t = SimTime::ZERO;
        for i in 0..OPS {
            t += SimTime::from_micros(3);
            pool.acquire(t, i);
            if i >= 16 {
                black_box(pool.release(t));
            }
        }
        black_box(pool.in_use());
    });
}

fn bench_gc() {
    use jvm_gc::{GcConfig, JvmGc, MIB};
    const ALLOCS: u64 = 100_000;
    bench("jvm_gc/allocation_100k", ALLOCS, || {
        let mut j = JvmGc::new(GcConfig::jdk6_server());
        j.set_conns(240);
        j.set_active(120);
        for _ in 0..ALLOCS {
            if j.on_allocation(0.1 * MIB).is_some() {
                j.collection_finished();
            }
        }
        black_box(j.collections());
    });
}

fn bench_full_system() {
    use ntier_core::{HardwareConfig, SoftAllocation, SystemConfig};
    use workload::WorkloadConfig;
    bench("full_system/trial_500_users", 1, || {
        let mut cfg = SystemConfig::new(
            HardwareConfig::one_two_one_two(),
            SoftAllocation::rule_of_thumb(),
            500,
        );
        cfg.workload = WorkloadConfig::quick(500);
        black_box(tiers::run_system(cfg));
    });
}

fn main() {
    println!("{:>32}  {:>13}   {:>12}", "benchmark", "best time", "rate");
    bench_engine();
    bench_ps_cpu();
    bench_soft_pool();
    bench_gc();
    bench_full_system();
}
