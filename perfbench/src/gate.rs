//! The correctness gate every round passes after its timed window: the
//! fleet's quiesce has already run, so none of this is measured time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use dvv::mechanisms::Mechanism;
use kvstore::harness::{assert_dot_unique_in_logs, audit_fleet, FleetHarness};
use kvstore::value::StampedValue;

use crate::traced::DvvState;

/// Audits a quiesced fleet:
/// * the paper's metadata bound: no stored clock names more actors than
///   there are servers;
/// * with `logs`, dot uniqueness over every record the servers' logs
///   durably hold (after syncing them);
/// * the cross-driver audit stack: one ring view, AAE equivalence, no
///   residual copies, fleet-wide dot uniqueness, then converge with zero
///   lost acknowledged writes and zero false concurrency.
///
/// Returns the first failure.
pub fn check<M, H>(fleet: &mut H, servers: usize, logs: Option<&Path>) -> Result<(), String>
where
    M: Mechanism<StampedValue, State = DvvState>,
    H: FleetHarness<M>,
{
    for i in fleet.member_servers() {
        for (key, state) in fleet.server_ref(i).data().iter() {
            for sibling in state {
                let actors = sibling.clock.join_vv().len();
                if actors > servers {
                    return Err(format!(
                        "server {i} key {:?}: clock names {actors} actors, more than {servers} servers",
                        String::from_utf8_lossy(key)
                    ));
                }
            }
        }
    }
    if let Some(dir) = logs {
        for i in fleet.member_servers() {
            fleet.server_mut_ref(i).sync_storage();
        }
        let mech = fleet.mechanism().clone();
        let slots = fleet.member_servers();
        guarded(|| assert_dot_unique_in_logs(&mech, dir, slots, "log dot census"))?;
    }
    guarded(|| audit_fleet(fleet, "audit"))
}

/// Runs an asserting audit, turning its panic into an error.
fn guarded(audit: impl FnOnce()) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(audit)).map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "audit panicked".to_string())
    })
}
