//! Zone-sharded cluster integration: determinism across worker counts,
//! the relay's flat-in-membership wide-area cost (DESIGN.md §11), and
//! the flat city as the cluster's one-zone case.

use cm_bench::city_run::run_city_schedule;
use cm_bench::city_zone::{run_city_cluster, run_city_cluster_schedule};
use cm_obs::render_report;
use cm_testkit::{CityConfig, CitySchedule, MediaMix};

/// The tentpole determinism claim, end to end: the same seeded workload
/// run on 1 worker thread and on 4 produces byte-identical merged
/// telemetry and the same final simulated time. The logical partition
/// (`cfg.zones = 4`) is part of the workload; only the thread count
/// changes.
#[test]
fn one_worker_and_four_workers_merge_to_identical_bytes() {
    let cfg = CityConfig {
        rooms: 16,
        arrival_window_ms: 10_000,
        ..CityConfig::smoke(42)
    };
    let one = run_city_cluster(&cfg, 1, Some(1 << 16));
    let four = run_city_cluster(&cfg, 4, Some(1 << 16));
    assert_eq!(one.workers, 1);
    assert_eq!(four.workers, 4);
    assert_eq!(one.agg.sim_ms, four.agg.sim_ms, "final sim time");
    assert_eq!(one.agg.events_executed, four.agg.events_executed);
    assert_eq!(one.agg.osdus_delivered, four.agg.osdus_delivered);
    assert_eq!(one.wan_msgs, four.wan_msgs);
    let a = one.merged_jsonl.expect("telemetry enabled");
    let b = four.merged_jsonl.expect("telemetry enabled");
    assert!(!a.is_empty());
    assert_eq!(a, b, "merged telemetry must be byte-identical");
    // And the cross-zone machinery actually ran (the claim is not
    // vacuous): mirrors opened and media crossed the wide area.
    assert!(four.wan_bytes > 0, "wide-area media flowed");
    assert!(
        four.per_zone.iter().any(|z| z.mirrors_opened > 0),
        "guest zones opened mirrors"
    );
}

/// Inter-zone byte count for a cross-zone room is flat in membership:
/// the relay sends one envelope per guest *zone* per OSDU, and the
/// mirror fans out locally. Tripling or quintupling the room's members
/// must not change what crosses the wide area.
#[test]
fn cross_zone_bytes_are_flat_in_membership() {
    let run = |members: u32| {
        let cfg = CityConfig {
            rooms: 1,
            nodes: 16,
            members_min: members,
            members_max: members,
            lifetime_min_ms: 10_000,
            lifetime_max_ms: 10_000,
            churn_percent: 0,
            writes_per_stream: 8,
            // Audio only, so the OSDU size cannot vary between configs.
            mix: MediaMix {
                audio: 1,
                text: 0,
                video: 0,
            },
            zones: 3,
            cross_zone_percent: 100,
            ..CityConfig::smoke(11)
        };
        let c = run_city_cluster(&cfg, 3, None);
        assert_eq!(c.agg.joins_denied, 0);
        assert!(c.wan_bytes > 0, "the room must actually span zones");
        (c.wan_msgs, c.wan_bytes)
    };
    let small = run(3);
    let medium = run(9);
    let large = run(15);
    assert_eq!(small, medium, "3 vs 9 members changed wide-area traffic");
    assert_eq!(small, large, "3 vs 15 members changed wide-area traffic");
}

/// The flat city is the one-zone cluster, exactly: the same smoke city
/// replayed flat and through the cluster runner over `zones: 1` on one
/// worker yields equal counters, byte-identical telemetry and a
/// byte-identical attribution report. Both are traced, so the claim
/// covers every timestamped event either world recorded.
#[test]
fn flat_city_is_the_one_zone_cluster() {
    let cfg = CityConfig {
        zones: 1,
        ..CityConfig::smoke(7)
    };
    let schedule = CitySchedule::generate(&cfg);
    let capacity = Some(1 << 20);
    let (flat, engine, obs) = run_city_schedule(&cfg, schedule.clone(), capacity);
    let tel = engine.telemetry();
    let flat_jsonl = tel.export_jsonl();
    let flat_report =
        render_report(&[obs.finish_report(0, engine.now().as_micros(), tel.overflow())]);

    let one = run_city_cluster_schedule(&cfg, &schedule, 1, capacity);
    assert_eq!(one.per_zone.len(), 1);
    let zone = &one.per_zone[0];
    assert_eq!(one.agg, flat, "aggregate counters");
    assert_eq!(zone.stats, flat, "zone 0 counters");
    assert_eq!(one.wan_msgs, 0, "one zone has no wide area");
    assert!(flat.osdus_delivered > 0 && !flat_jsonl.is_empty());
    assert!(
        zone.telemetry_jsonl.as_deref() == Some(flat_jsonl.as_str()),
        "telemetry must be byte-identical"
    );
    let one_report = render_report(std::slice::from_ref(
        zone.obs_report
            .as_ref()
            .expect("tracing rides with telemetry"),
    ));
    assert!(one_report.contains("\"schema\": \"cm-obs/v1\""));
    assert!(one_report == flat_report, "report must be byte-identical");
}
