//! Tests of the textual IR pipeline a `dswpc` user sees: parse a
//! hand-written fixture, transform it, emit it, parse the emission, and get
//! identical results everywhere.

use dswp_repro::dswp::{dswp_loop, select_loop, DswpOptions};
use dswp_repro::ir::interp::Interpreter;
use dswp_repro::ir::verify::verify_program;
use dswp_repro::ir::{parse_program, to_text};
use dswp_repro::sim::{Executor, Machine, MachineConfig};

const FIXTURE: &str = include_str!("fixtures/list.ir");

#[test]
fn fixture_parses_and_runs() {
    let p = parse_program(FIXTURE).unwrap();
    let r = Interpreter::new(&p).run().unwrap();
    // Every node's value was incremented: 5,6,7,8 → 6,7,8,9.
    assert_eq!(r.memory[9], 6);
    assert_eq!(r.memory[15], 9);
}

#[test]
fn fixture_full_cli_pipeline() {
    let mut p = parse_program(FIXTURE).unwrap();
    let main = p.main();
    let baseline = Interpreter::new(&p).run().unwrap();
    let header = select_loop(&p, main, &baseline.profile, 2.0).unwrap();
    dswp_loop(
        &mut p,
        main,
        header,
        &baseline.profile,
        &DswpOptions::default(),
    )
    .unwrap();

    // Emit → parse → run, as `dswpc --emit` then `dswpc --sim` would.
    let text = to_text(&p);
    let reparsed = parse_program(&text).unwrap();
    let exec = Executor::new(&reparsed).run().unwrap();
    assert_eq!(exec.memory, baseline.memory);
    let sim = Machine::new(&reparsed, MachineConfig::full_width())
        .run()
        .unwrap();
    assert_eq!(sim.memory, baseline.memory);
    assert_eq!(sim.cores.len(), 2);
}

/// Every fixture in `tests/fixtures/` must survive parse → print → parse →
/// print with a stable printed form, and reparsing must not change what the
/// program computes.
#[test]
fn every_fixture_round_trips() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut fixtures: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "ir"))
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 3,
        "expected at least 3 fixtures in {}, found {}",
        dir.display(),
        fixtures.len()
    );

    for path in fixtures {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).unwrap();
        // `malformed_*.ir` are negative fixtures: they must be rejected by
        // the parser or by structural verification, never accepted.
        if name.starts_with("malformed") {
            let rejected = match parse_program(&src) {
                Err(_) => true,
                Ok(p) => verify_program(&p).is_err(),
            };
            assert!(rejected, "{name}: malformed fixture was accepted");
            continue;
        }
        let p1 = parse_program(&src).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        let t1 = to_text(&p1);
        let p2 = parse_program(&t1).unwrap_or_else(|e| panic!("{name}: reparse failed: {e}"));
        let t2 = to_text(&p2);
        assert_eq!(t1, t2, "{name}: printed form not a fixed point");

        // The reparsed program computes the same thing as the original, on
        // the engine that fits its shape.
        if p1.num_threads() == 1 {
            let a = Interpreter::new(&p1).run().unwrap();
            let b = Interpreter::new(&p2).run().unwrap();
            assert_eq!(
                a.memory, b.memory,
                "{name}: memory changed across round-trip"
            );
        } else {
            // Some fixtures (e.g. `deadlock.ir`) fail by design with a
            // structured error; the round-trip must preserve that outcome
            // exactly, success or not.
            match (Executor::new(&p1).run(), Executor::new(&p2).run()) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.memory, b.memory,
                        "{name}: memory changed across round-trip"
                    );
                    assert_eq!(
                        a.streams, b.streams,
                        "{name}: streams changed across round-trip"
                    );
                }
                (Err(a), Err(b)) => {
                    assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "{name}: error changed across round-trip"
                    );
                }
                (a, b) => panic!(
                    "{name}: outcome changed across round-trip: {:?} vs {:?}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }
}

#[test]
fn sum_fixture_computes_expected_total() {
    let src = include_str!("fixtures/sum.ir");
    let p = parse_program(src).unwrap();
    let r = Interpreter::new(&p).run().unwrap();
    assert_eq!(r.memory[0], 31);
}

#[test]
fn calls_fixture_runs_helper() {
    let src = include_str!("fixtures/calls.ir");
    let p = parse_program(src).unwrap();
    let r = Interpreter::new(&p).run().unwrap();
    assert_eq!(r.memory[0], 1);
    assert_eq!(r.memory[1], 42);
}

/// The hand-written pipeline fixture runs identically on the functional
/// executor and the native runtime, exercising every queue opcode the text
/// format knows (PRODUCE, CONSUME, and their .token forms).
#[test]
fn pipeline_fixture_runs_on_both_concurrent_engines() {
    let src = include_str!("fixtures/pipeline.ir");
    let p = parse_program(src).unwrap();

    let exec = Executor::new(&p).run().unwrap();
    assert_eq!(exec.memory[0], 10, "sum of 0..5");

    let native = dswp_repro::rt::Runtime::new(&p)
        .with_config(
            dswp_repro::rt::RtConfig::default()
                .queue_capacity(2)
                .record_streams(true),
        )
        .run()
        .unwrap();
    assert_eq!(native.memory, exec.memory);
    assert_eq!(native.streams.unwrap(), exec.streams);
}

#[test]
fn parse_errors_are_actionable() {
    let bad = FIXTURE.replace("r2 = add r2, 1", "r2 = bogus r2, 1");
    let err = parse_program(&bad).unwrap_err();
    assert!(err.line > 0);
    assert!(err.message.contains("bogus"), "{err}");
}

/// `DEPTH` (a queue-occupancy probe) is no longer an instruction: a program
/// that still uses it gets a located parse error naming it.
#[test]
fn removed_depth_op_is_a_parse_error() {
    let bad = FIXTURE.replace("r2 = add r2, 1", "r2 = DEPTH [q0]");
    assert_ne!(bad, FIXTURE);
    let err = parse_program(&bad).unwrap_err();
    assert!(err.line > 0);
    assert!(err.message.contains("DEPTH"), "{err}");
}
