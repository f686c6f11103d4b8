//! `film_sync`: independent films, each a separately stored audio and
//! video track on servers whose clocks drift by ±500…±4000 ppm, played in
//! lip sync at one workstation under `OrchestrationPolicy::lip_sync()`.
//! The paper's central claim as a workload: orchestration (HLO, agent,
//! LLO regulate + harvest), media sources/sinks and unicast rate-based
//! transport; no session layer, no multicast.
//!
//! A film is `cm_testkit::FilmScenario`, assembled here from the same
//! public pieces its own `build` uses so that the benchmark makes (and
//! times) the connects itself.

use super::{render_and_export, report_program_tracing};
use crate::sample::{Phases, Report, SampleSpec};
use crate::spans;
use crate::stats::{highest_supported_percentile, percentile_sorted};
use cm_core::address::{AddressTriple, NetAddr, TransportAddr, VcId};
use cm_core::error::DisconnectReason;
use cm_core::media::MediaProfile;
use cm_core::qos::QosParams;
use cm_core::rng::DetRng;
use cm_core::service_class::ServiceClass;
use cm_core::time::{SimDuration, SimTime};
use cm_media::{PlayoutSink, SinkDriver, SourceDriver, StoredClip, StoredSource};
use cm_orchestration::{HloAgent, OrchestrationPolicy};
use cm_testkit::scenario::MediaStream;
use cm_testkit::{FilmScenario, Stack, StackConfig};
use cm_transport::{TransportService, TransportUser};
use netsim::Engine;
use std::cell::Cell;
use std::rc::Rc;

/// The lip-sync tolerance the paper (§3.6) and the policy both use.
const LIP_SYNC_MS: f64 = 80.0;

struct Shape {
    films: usize,
    play_secs: u64,
}

/// Source-side user of a media VC: notes when the connect was confirmed.
struct ConnectProbe {
    engine: Engine,
    confirmed_at: Cell<Option<SimTime>>,
}

impl TransportUser for ConnectProbe {
    fn t_connect_confirm(
        &self,
        _svc: &TransportService,
        _vc: VcId,
        result: Result<QosParams, DisconnectReason>,
    ) {
        let _g = spans::enter("bench.connect_confirm");
        if result.is_ok() {
            self.confirmed_at.set(Some(self.engine.now()));
        }
    }
}

struct Film {
    scenario: FilmScenario,
    obs: cm_obs::Obs,
    connect_sim_us: Vec<u64>,
    skews_ppm: (i32, i32),
    /// Set when the orchestrated start completes.
    started_at: Rc<Cell<Option<SimTime>>>,
    agent: Option<HloAgent>,
    ended_at: SimTime,
}

/// Open a media VC `src → dst` and run the handshake window
/// `Stack::connect` allows; returns the VC and the sim time from request
/// to confirm.
fn connect_timed(stack: &Stack, src: NetAddr, dst: NetAddr, profile: &MediaProfile) -> (VcId, u64) {
    let (src_tsap, dst_tsap) = (stack.fresh_tsap(), stack.fresh_tsap());
    let probe = Rc::new(ConnectProbe {
        engine: stack.engine().clone(),
        confirmed_at: Cell::new(None),
    });
    let (sn, dn) = (stack.node(src), stack.node(dst));
    sn.svc
        .bind(src_tsap, probe.clone())
        .expect("bind source TSAP");
    dn.svc
        .bind(dst_tsap, dn.user.clone())
        .expect("bind sink TSAP");
    let triple = AddressTriple::conventional(
        TransportAddr {
            node: src,
            tsap: src_tsap,
        },
        TransportAddr {
            node: dst,
            tsap: dst_tsap,
        },
    );
    let called = stack.engine().now();
    let vc = spans::within("cm-transport.t_connect_request", || {
        sn.svc
            .t_connect_request(triple, ServiceClass::cm_default(), profile.requirement())
    })
    .expect("connect request");
    spans::within("netsim.Engine.run_for", || {
        stack.run_for(SimDuration::from_millis(800))
    });
    assert!(sn.svc.is_open(vc), "film connect {src} -> {dst} refused");
    let confirmed = probe.confirmed_at.get().expect("open VC was confirmed");
    (vc, confirmed.saturating_since(called).as_micros())
}

fn media_stream(
    stack: &Stack,
    src: NetAddr,
    dst: NetAddr,
    profile: &MediaProfile,
    clip: &StoredClip,
    connect_sim_us: &mut Vec<u64>,
) -> MediaStream {
    let (vc, took) = connect_timed(stack, src, dst, profile);
    connect_sim_us.push(took);
    spans::within("cm-media.attach", || {
        let source = StoredSource::new(stack.node(src).svc.clone(), vc, clip.reader());
        SourceDriver::register(&stack.node(src).llo, vc, &source);
        let sink = PlayoutSink::new(stack.node(dst).svc.clone(), vc, clip.rate);
        SinkDriver::register(&stack.node(dst).llo, vc, &sink);
        MediaStream { vc, source, sink }
    })
}

fn build_film(spec: &SampleSpec, shape: &Shape, index: usize, rng: &mut DetRng) -> Film {
    // Each server's clock is off by 500…4000 ppm, either way.
    let skew = |rng: &mut DetRng| {
        let ppm = rng.range_inclusive(500, 4_000) as i32;
        if rng.range_inclusive(0, 1) == 0 {
            ppm
        } else {
            -ppm
        }
    };
    let skews_ppm = (skew(rng), skew(rng));
    let obs = cm_obs::Obs::disabled();
    let mut cfg = StackConfig::default();
    cfg.testbed.servers = 2;
    cfg.testbed.workstations = 1;
    // Node order in the testbed builder: workstations, then servers.
    cfg.testbed.clock_skews_ppm = vec![0, skews_ppm.0, skews_ppm.1];
    cfg.testbed.seed = spec.seed.wrapping_mul(1_000).wrapping_add(index as u64);
    cfg.entity.obs = obs.clone();
    let stack = spans::within("cm-testkit.Stack.build", || Stack::build(cfg));
    if spec.traced {
        stack
            .engine()
            .telemetry()
            .enable(cm_telemetry::DEFAULT_CAPACITY);
        obs.enable();
    }
    let workstation = stack.tb.workstations[0];
    let (audio_server, video_server) = (stack.tb.servers[0], stack.tb.servers[1]);
    let (audio_profile, video_profile) =
        (MediaProfile::audio_telephone(), MediaProfile::video_mono());
    // The clips outlast the run, so the end of a clip is never measured.
    let clip_secs = shape.play_secs + 30;
    let mut connect_sim_us = Vec::new();
    let audio = media_stream(
        &stack,
        audio_server,
        workstation,
        &audio_profile,
        &StoredClip::cbr_for(&audio_profile, clip_secs),
        &mut connect_sim_us,
    );
    let video = media_stream(
        &stack,
        video_server,
        workstation,
        &video_profile,
        &StoredClip::cbr_for(&video_profile, clip_secs),
        &mut connect_sim_us,
    );
    Film {
        scenario: FilmScenario {
            stack,
            audio,
            video,
            workstation,
        },
        obs,
        connect_sim_us,
        skews_ppm,
        started_at: Rc::new(Cell::new(None)),
        agent: None,
        ended_at: SimTime::ZERO,
    }
}

pub fn run(spec: &SampleSpec, phases: &mut Phases, rep: &mut Report) {
    let shape = if spec.smoke {
        Shape {
            films: 1,
            play_secs: 60,
        }
    } else {
        Shape {
            films: 8,
            play_secs: 1_800,
        }
    };

    let mut films: Vec<Film> = phases.setup(|| {
        let mut rng = DetRng::from_seed(spec.seed);
        (0..shape.films)
            .map(|i| build_film(spec, &shape, i, &mut rng))
            .collect()
    });

    // Timed region: orchestrate, start and play every film, one after
    // another (each has its own engine).
    let mut events = 0u64;
    let mut start_sim_us: Vec<u64> = Vec::new();
    phases.timed(|| {
        for film in &mut films {
            let f = &film.scenario;
            let engine = f.stack.engine().clone();
            let before = engine.executed();
            let called = engine.now();
            let started_at = film.started_at.clone();
            let eng = engine.clone();
            let agent = spans::within("cm-orchestration.orchestrate_and_start", || {
                f.stack.hlo.orchestrate_and_start(
                    &[f.audio.vc, f.video.vc],
                    OrchestrationPolicy::lip_sync(),
                    move |r| {
                        let _g = spans::enter("bench.started");
                        if r.is_ok() {
                            started_at.set(Some(eng.now()));
                        }
                    },
                )
            });
            film.agent = agent.ok();
            spans::within("netsim.Engine.run_for", || {
                f.stack.run_for(SimDuration::from_secs(shape.play_secs))
            });
            if let Some(at) = film.started_at.get() {
                start_sim_us.push(at.saturating_since(called).as_micros());
            }
            film.ended_at = engine.now();
            events += engine.executed() - before;
        }
    });
    let wall_s = phases.wall_s();

    phases.collect(|| {
        rep.set("netsim.engine.events", events as f64);
        rep.set(
            "netsim.engine.ns_per_event",
            wall_s * 1e9 / events.max(1) as f64,
        );
        let started = films
            .iter()
            .filter(|f| f.started_at.get().is_some())
            .count();
        rep.check(
            "every film started",
            started == films.len(),
            format!("films_started={started} films={}", films.len()),
        );
        rep.note(
            "skews_ppm",
            films
                .iter()
                .map(|f| format!("{:+}/{:+}", f.skews_ppm.0, f.skews_ppm.1))
                .collect::<Vec<_>>()
                .join(" "),
        );

        let mut latencies: Vec<u64> = Vec::new();
        let mut skews_us: Vec<u64> = Vec::new();
        let (mut due, mut shown, mut late) = (0u64, 0u64, 0u64);
        let (mut produced, mut presented, mut regulated) = (0u64, 0u64, 0u64);
        for film in films.iter().filter(|f| f.started_at.get().is_some()) {
            let f = &film.scenario;
            let t0 = film.started_at.get().expect("filtered on started");
            for (stream, profile) in [
                (&f.audio, MediaProfile::audio_telephone()),
                (&f.video, MediaProfile::video_mono()),
            ] {
                let period = profile.osdu_rate.interval();
                let deadline = profile.delay_bound;
                // OSDU k is due for presentation at t0 + k * period; it
                // counts if its deadline fell inside the run.
                let playable = film.ended_at.saturating_since(t0).saturating_sub(deadline);
                let due_here = playable.as_micros() / period.as_micros();
                due += due_here;
                for p in stream.sink.log.borrow().iter().filter(|p| p.seq < due_here) {
                    let latency = p.at.saturating_since(t0 + period.saturating_mul(p.seq));
                    latencies.push(latency.as_micros());
                    late += u64::from(latency > deadline);
                    shown += 1;
                }
                produced += stream.source.written.get();
                presented += stream.sink.presented.get();
            }
            // Skew every 100 ms from one second after the start.
            let (points, _) = f.skew_meter().series(
                t0 + SimDuration::from_secs(1),
                film.ended_at,
                SimDuration::from_millis(100),
            );
            skews_us.extend(points.iter().map(|(_, skew)| skew.as_micros()));
            regulated += film.agent.as_ref().map_or(0, |a| a.history().len() as u64);
        }
        latencies.sort_unstable();
        skews_us.sort_unstable();
        if !latencies.is_empty() {
            rep.set(
                "osdu_latency_p50_ms",
                percentile_sorted(&latencies, 50.0) as f64 / 1e3,
            );
            rep.set(
                "osdu_latency_p99_ms",
                percentile_sorted(&latencies, 99.0) as f64 / 1e3,
            );
        }
        rep.note("latency_samples", latencies.len());
        rep.check(
            "enough presentations for p99",
            highest_supported_percentile(latencies.len()).is_some_and(|p| p >= 99.0)
                && (spec.smoke || latencies.len() >= 100_000),
            format!("latency_samples={}", latencies.len()),
        );
        let never = due.saturating_sub(shown);
        rep.set(
            "deadline_miss_ratio",
            (late + never) as f64 / due.max(1) as f64,
        );
        rep.note(
            "deadline_misses",
            format!("{}/{due} (late={late} never={never})", late + never),
        );
        rep.ops(due, never);

        let skew_p99_ms = if skews_us.is_empty() {
            f64::NAN
        } else {
            percentile_sorted(&skews_us, 99.0) as f64 / 1e3
        };
        rep.set("skew_p99_ms", skew_p99_ms);
        rep.note("skew_samples", skews_us.len());
        rep.check(
            "skew_p99_ms <= 80",
            skew_p99_ms <= LIP_SYNC_MS,
            format!("skew_p99_ms={skew_p99_ms}"),
        );

        let mut connects: Vec<u64> = films
            .iter()
            .flat_map(|f| f.connect_sim_us.iter().copied())
            .collect();
        connects.sort_unstable();
        rep.set(
            "cm-transport.connect.sim_ms_p50",
            percentile_sorted(&connects, 50.0) as f64 / 1e3,
        );
        start_sim_us.sort_unstable();
        if !start_sim_us.is_empty() {
            rep.set(
                "cm-orchestration.start_sim_ms",
                percentile_sorted(&start_sim_us, 50.0) as f64 / 1e3,
            );
        }
        rep.set("cm-orchestration.regulate.count", regulated as f64);
        // No session layer here: the benchmark made no room call and got no
        // room callback.
        for idle in [
            "cm-session.join.calls",
            "cm-session.on_media.calls",
            "cm-session.health.degraded",
            "cm-session.health.recovered",
            "cm-session.health.member_lost",
        ] {
            rep.set(idle, 0.0);
        }
        rep.set("cm-media.produced", produced as f64);
        rep.set("cm-media.presented", presented as f64);

        if spec.traced {
            let engines: Vec<&cm_telemetry::Telemetry> = films
                .iter()
                .map(|f| f.scenario.stack.engine().telemetry())
                .collect();
            let zones: Vec<_> = films
                .iter()
                .zip(&engines)
                .enumerate()
                .map(|(i, (film, tel))| {
                    film.obs
                        .finish_report(i as u32, film.ended_at.as_micros(), tel.overflow())
                })
                .collect();
            report_program_tracing(rep, &zones, &engines);
            render_and_export(rep, &zones, &engines);
        }
    });
    std::mem::forget(films);
}
