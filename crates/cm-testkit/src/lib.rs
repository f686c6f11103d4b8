//! # cm-testkit — shared scenario builders
//!
//! Assembles the full stack (network testbed → transport entities → LLOs →
//! HLO → media actors) into ready-made scenarios used by the integration
//! tests, the examples and the experiment harness: the *film* (lip-sync,
//! §3.6), the *language laboratory* (§3.6) and the captioned-video session.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod city;
pub mod faults;
pub mod scenario;
pub mod users;
pub mod zone;

pub use city::{CityConfig, CityEvent, CityMedia, CitySchedule, MediaMix};
pub use faults::{FaultPlan, RevocationRouter};
pub use scenario::{connect_media, FilmScenario, LanguageLab, Stack, StackConfig};
pub use users::AutoAcceptUser;
pub use zone::{CityWire, ZoneEvent, ZonePlan, ZoneRoomInfo, ZoneSchedule};

/// End-of-world invariants (the seed of the ROADMAP's invariant checker):
/// once every user has released what it held, the world is empty — no
/// entity holds VC state, no link carries a reservation, no event is
/// pending. Returns one line per leftover; a clean world returns none.
pub fn world_leftovers(
    net: &netsim::Network,
    services: impl IntoIterator<Item = cm_transport::TransportService>,
) -> Vec<String> {
    let mut left = Vec::new();
    for svc in services {
        let held = svc.live_vcs();
        if held != 0 {
            left.push(format!("{:?} holds {held} VCs", svc.node()));
        }
    }
    for lid in (0..net.link_count() as u32).map(netsim::LinkId) {
        let held = net.reserved_on(lid);
        if held != cm_core::time::Bandwidth::ZERO {
            left.push(format!("{lid:?} still reserves {held:?}"));
        }
    }
    let pending = net.engine().pending();
    if pending != 0 {
        left.push(format!("{pending} events pending"));
    }
    left
}
