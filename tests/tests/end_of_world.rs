//! Teardown frees the world: after a whole city has come and gone, no
//! node holds VC state, no link holds a reservation and nothing is
//! scheduled — memory and resources follow the live set, not history.

use cm_bench::city_run::run_city_world;
use cm_core::address::NetAddr;
use cm_testkit::{world_leftovers, CityConfig, CitySchedule};

#[test]
fn replayed_city_leaves_nothing_behind() {
    let cfg = CityConfig::smoke(7);
    let schedule = CitySchedule::generate(&cfg);
    let (stats, platform, _obs) = run_city_world(&cfg, schedule, None);
    // The claim is not vacuous: the city really opened rooms, admitted
    // members (each a VC end) and moved media.
    assert_eq!(stats.rooms_opened, cfg.rooms as u64);
    assert!(stats.joins_ok > stats.rooms_opened);
    assert!(stats.osdus_delivered > 0);
    let net = platform.network();
    let services = (0..net.node_count() as u32).map(|n| platform.service(NetAddr(n)));
    assert_eq!(world_leftovers(net, services), Vec::<String>::new());
}
