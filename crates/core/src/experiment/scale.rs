//! T6S: simulator scalability sweep — 10^3 to 10^5 stations.
//!
//! Unlike T1–T5 this experiment measures the *simulator*, not a
//! detection scheme: the timing-wheel scheduler, the recycling frame
//! pool, and the flat port arena all exist so one simulation can hold
//! an enterprise-sized segment. The sweep runs the two-tier fabric
//! from [`crate::scenario::scale`] at increasing station counts and
//! reports deterministic wire-level rates.
//!
//! Wall-clock telemetry goes to **stderr** only, through the shared
//! [`Heartbeat`] reporter: elapsed time varies run to run, and the CSVs
//! on stdout must stay byte-identical across reruns and thread counts
//! (the CI smoke diffs `ARPSHIELD_THREADS=1` against `4`).
//! `ARPSHIELD_QUIET=1` silences the reporter entirely. Each sweep
//! point advances the simulator in fixed sim-time chunks so the
//! reporter gets periodic wall-clock sampling opportunities — the chunk
//! boundaries are deterministic simulated instants, so chunking cannot
//! perturb event order or any exported counter.

use std::time::{Duration, Instant};

use arpshield_netsim::SimTime;
use arpshield_trace::{profile, Heartbeat};

use crate::parallel::run_indexed;
use crate::report::Series;
use crate::scenario::scale::{build, ScaleConfig, ScaleLan};

/// The default host counts the published sweep covers.
pub const T6S_SIZES: &[usize] = &[1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000];

/// Spoofing stations in the defended sweep — fixed like the churner
/// set, so the attack rate stays constant as the fabric grows.
const T6SD_SPOOFERS: usize = 8;

/// Sim-time chunks per sweep point: each boundary is a heartbeat and
/// gauge sampling opportunity. 64 keeps per-chunk overhead invisible
/// while giving a multi-second point plenty of progress lines.
const RUN_CHUNKS: u32 = 64;

/// Drives `lan` to `duration` in deterministic sim-time chunks,
/// heartbeating progress and sampling the runtime gauges at every
/// boundary. Returns the reporter so the caller can emit its `done`
/// line with experiment-specific detail.
fn run_measured(lan: &mut ScaleLan, duration: Duration, label: String) -> Heartbeat {
    let mut hb = Heartbeat::new(label);
    let _run = profile::span("sim.run");
    let end = SimTime::ZERO + duration;
    let chunk = (duration / RUN_CHUNKS).max(Duration::from_nanos(1));
    let mut next = SimTime::ZERO;
    while next < end {
        next = (next + chunk).min(end);
        {
            let _s = profile::span("sim.run_until");
            lan.sim.run_until(next);
        }
        profile::gauge("wheel.occupancy", lan.sim.queue_depth() as u64);
        let pool = arpshield_netsim::pool_stats();
        profile::gauge("pool.hit_rate_pct", (pool.hit_rate() * 100.0) as u64);
        // The in-switch sampling point rides the CAM aging sweep, whose
        // interval can exceed a short sweep's whole duration — sample
        // the root CAM here too so every t6s profile carries it.
        profile::gauge("switch.cam.size", lan.root.cam.borrow().occupancy() as u64);
        let stats = lan.sim.wire_stats();
        hb.tick(|hb| {
            let wall_s = hb.elapsed().as_secs_f64().max(1e-9);
            let fraction = next.as_nanos() as f64 / end.as_nanos().max(1) as f64;
            let eta = hb.eta_secs(fraction).unwrap_or(0.0);
            format!(
                "sim_ms={}/{} frames={} frames_per_wall_s={:.0} events_per_wall_s={:.0} \
                 wheel={} pool_hit_pct={:.0} eta_s={eta:.1}",
                next.as_nanos() / 1_000_000,
                end.as_nanos() / 1_000_000,
                stats.frames,
                stats.frames as f64 / wall_s,
                (stats.frames + stats.timers) as f64 / wall_s,
                lan.sim.queue_depth(),
                pool.hit_rate() * 100.0,
            )
        });
    }
    hb
}

/// T6S: wire throughput and per-host traffic versus station count.
///
/// Two series: frames per simulated second (grows linearly with hosts
/// while per-station rates are constant — any super-linear bend means
/// broadcast fan-out or CAM thrash crept in), and wire bytes per host
/// (flat, for the same reason).
pub fn t6_scale(seed: u64, sizes: &[usize]) -> Vec<Series> {
    let jobs: Vec<_> = sizes
        .iter()
        .map(|&n| {
            move || {
                // The job root span makes sum(self over the whole tree)
                // telescope to this job's wall time, which is what the
                // profile coverage gate in ci.sh checks.
                let _job = profile::span("t6s.job");
                let config = ScaleConfig::new(seed, n);
                let mut lan = {
                    let _s = profile::span("t6s.build");
                    build(config)
                };
                let started = Instant::now();
                let hb = run_measured(&mut lan, config.duration, format!("t6s hosts={n}"));
                let stats = lan.sim.wire_stats();
                hb.done(&format!(
                    "frames={} frames_per_wall_s={:.0}",
                    stats.frames,
                    stats.frames as f64 / hb.elapsed().as_secs_f64().max(1e-9),
                ));
                (stats.frames, stats.bytes, config.duration.as_secs_f64(), started.elapsed())
            }
        })
        .collect();

    let mut frames_rate =
        Series::new("T6S: frames per simulated second vs hosts", "hosts", "frames_per_sim_sec");
    let mut bytes_per_host =
        Series::new("T6S: wire bytes per host vs hosts", "hosts", "bytes_per_host");
    for (&n, (frames, bytes, sim_secs, _elapsed)) in sizes.iter().zip(run_indexed(jobs)) {
        frames_rate.push(n as f64, frames as f64 / sim_secs);
        bytes_per_host.push(n as f64, bytes as f64 / n as f64);
    }
    vec![frames_rate, bytes_per_host]
}

/// T6SD: detection overhead *inside* the scaled fabric.
///
/// Each sweep point builds the per-leaf VLAN fabric twice with an
/// identical offered load — background refresh chatter, DHCP churners,
/// and a fixed set of gateway spoofers — once undefended and once with
/// per-VLAN DAI on the root and every leaf uplink. Four series come
/// out: wire throughput for both variants (their gap is the traffic
/// DAI absorbed plus fan-out it prevented), the DAI denial count, and
/// DAI's accounted work units. Only deterministic sim counters are
/// reported — wall-clock rates go to stderr, so the CSVs stay
/// byte-identical at any `ARPSHIELD_THREADS`.
pub fn t6_scale_defended(seed: u64, sizes: &[usize]) -> Vec<Series> {
    let jobs: Vec<_> = sizes
        .iter()
        .map(|&n| {
            move || {
                let _job = profile::span("t6sd.job");
                let run = |config: ScaleConfig, variant: &str| {
                    let mut lan = {
                        let _s = profile::span("t6sd.build");
                        build(config)
                    };
                    let hb = run_measured(
                        &mut lan,
                        config.duration,
                        format!("t6sd[{variant}] hosts={n}"),
                    );
                    let denied = lan.inspector_drops();
                    let work = lan.alerts.as_ref().map_or(0, |log| log.work_of("dai"));
                    let frames = lan.sim.wire_stats().frames;
                    hb.done(&format!("frames={frames} denied={denied} work_units={work}"));
                    (frames, denied, work)
                };
                let base = ScaleConfig::new(seed, n).with_spoofers(T6SD_SPOOFERS);
                let (open_frames, _, _) = run(base.with_vlan_fabric(), "open");
                let (dai_frames, denied, work) = run(base.with_dai(), "dai");
                let sim_secs = base.duration.as_secs_f64();
                (open_frames, dai_frames, denied, work, sim_secs)
            }
        })
        .collect();

    let mut open_rate = Series::new(
        "T6SD: frames per simulated second vs hosts (undefended VLAN fabric)",
        "hosts",
        "frames_per_sim_sec",
    );
    let mut dai_rate = Series::new(
        "T6SD: frames per simulated second vs hosts (DAI in fabric)",
        "hosts",
        "frames_per_sim_sec",
    );
    let mut dai_denied = Series::new("T6SD: DAI denied frames vs hosts", "hosts", "denied_frames");
    let mut dai_work = Series::new("T6SD: DAI work units vs hosts", "hosts", "dai_work_units");
    for (&n, (open_frames, dai_frames, denied, work, sim_secs)) in
        sizes.iter().zip(run_indexed(jobs))
    {
        open_rate.push(n as f64, open_frames as f64 / sim_secs);
        dai_rate.push(n as f64, dai_frames as f64 / sim_secs);
        dai_denied.push(n as f64, denied as f64);
        dai_work.push(n as f64, work as f64);
    }
    vec![open_rate, dai_rate, dai_denied, dai_work]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_host_traffic_stays_flat_as_the_lan_grows() {
        let series = t6_scale(5, &[500, 2_000]);
        let frames = series[0].points();
        let per_host = series[1].points();
        // Linear scaling: 4x hosts => ~4x frames/sec.
        let ratio = frames[1].1 / frames[0].1;
        assert!((3.0..5.0).contains(&ratio), "frames/sec ratio {ratio}");
        // Bytes per host within 20% across sizes (churners amortise).
        let drift = (per_host[1].1 - per_host[0].1).abs() / per_host[0].1;
        assert!(drift < 0.2, "bytes/host drifted {drift}");
    }

    #[test]
    fn defended_sweep_reports_denials_and_costs_throughput() {
        let series = t6_scale_defended(5, &[700]);
        let open = series[0].points()[0].1;
        let dai = series[1].points()[0].1;
        let denied = series[2].points()[0].1;
        let work = series[3].points()[0].1;
        // Spoofed frames die at the leaf inspectors, so the defended
        // fabric carries strictly fewer frames than the open one.
        assert!(denied > 0.0, "spoofers must trip DAI");
        assert!(work > 0.0, "DAI work must be accounted");
        assert!(dai < open, "defended rate {dai} should trail open rate {open}");
    }
}
