//! Whole-stack integration: the *machine's* power-failure outcome decides
//! the *heap's* fate, and the recovery ladder decides where the data
//! comes back from — the complete WSP story across every crate.

use wsp_repro::machine::{Machine, SystemLoad};
use wsp_repro::pheap::{BackendStore, HeapConfig, PersistentHeap};
use wsp_repro::power::Psu;
use wsp_repro::units::{ByteSize, Farads, Watts};
use wsp_repro::workloads::{Command, KvServer, Response};
use wsp_repro::wsp::{flush_on_fail_save, RestartStrategy};

/// Runs a KV server on a WSP heap "hosted" by `machine`: the machine's
/// flush-on-fail save outcome determines whether the heap's cached state
/// survives, and the back-end checkpoint is the fallback. Returns
/// whether the heap recovered locally, and the items it holds.
fn outage_on(machine: &mut Machine, load: SystemLoad) -> (bool, u64) {
    let mut heap = PersistentHeap::create(ByteSize::mib(4), HeapConfig::Fof);
    let mut server = KvServer::create(&mut heap).unwrap();
    let mut backend = BackendStore::disk_array();

    // Load phase: 500 sets, checkpoint halfway.
    for k in 0..250 {
        server.execute(&mut heap, &Command::Set(k, k)).unwrap();
    }
    backend.checkpoint(&heap);
    for k in 250..500 {
        server.execute(&mut heap, &Command::Set(k, k)).unwrap();
    }

    // The machine decides the save's fate.
    machine.apply_load(load, 13);
    let save = flush_on_fail_save(machine, load, RestartStrategy::RestorePathReinit);

    // NVRAM first, the back-end checkpoint last.
    let (mut heap, local) = match PersistentHeap::recover(heap.crash(save.completed)) {
        Ok(heap) => (heap, true),
        Err(_) => (backend.restore().expect("checkpoint taken above").0, false),
    };
    let mut server = KvServer::open(&mut heap).unwrap();
    let items = match server.execute(&mut heap, &Command::Stats).unwrap() {
        Response::Stats { items, .. } => items,
        other => panic!("expected stats, got {other:?}"),
    };
    (local, items)
}

#[test]
fn healthy_machine_recovers_everything_locally() {
    let mut machine = Machine::intel_testbed();
    let (local, items) = outage_on(&mut machine, SystemLoad::Busy);
    assert!(local, "a completed save recovers from NVRAM");
    assert_eq!(items, 500, "no committed data lost");
}

#[test]
fn starved_psu_falls_back_to_checkpoint() {
    // A PSU whose window cannot cover even the ~3 ms flush.
    let tiny = Psu::from_capacitance("starved", Watts::new(100.0), Farads::new(0.0001));
    let mut machine = Machine::intel_testbed().with_psu(tiny);
    let (local, items) = outage_on(&mut machine, SystemLoad::Busy);
    assert!(!local, "a missed window restores the checkpoint");
    assert_eq!(items, 250, "only the checkpointed half survives");
}

#[test]
fn idle_amd_machine_has_enormous_margin() {
    let mut machine = Machine::amd_testbed();
    machine.apply_load(SystemLoad::Idle, 1);
    let save = flush_on_fail_save(
        &mut machine,
        SystemLoad::Idle,
        RestartStrategy::RestorePathReinit,
    );
    assert!(save.completed);
    assert!(
        save.fraction_of_window.unwrap() < 0.01,
        "AMD idle: save uses under 1% of the 392 ms window"
    );
}

#[test]
fn per_outage_coverage_feeds_checkpoint_policy() {
    use wsp_repro::cluster::CheckpointPolicy;
    use wsp_repro::units::Nanos;

    // Measure coverage empirically: of 20 simulated outages on a healthy
    // machine, how many completed their save?
    let mut covered = 0u32;
    let runs = 20u32;
    for seed in 0..runs {
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, u64::from(seed));
        let save = flush_on_fail_save(
            &mut machine,
            SystemLoad::Busy,
            RestartStrategy::RestorePathReinit,
        );
        if save.completed {
            covered += 1;
        }
    }
    let coverage = f64::from(covered) / f64::from(runs);
    assert_eq!(coverage, 1.0, "healthy testbed always fits");

    // Feed it to the checkpoint planner: full coverage stretches the
    // checkpoint interval to its configured ceiling.
    let policy = CheckpointPolicy::new(
        Nanos::from_secs(900),
        Nanos::from_secs(7 * 24 * 3600),
        coverage.min(0.999),
    );
    assert!(policy.plan().interval > policy.plan_without_wsp().interval * 10);
}
