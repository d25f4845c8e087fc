//! The decoded form every engine executes (`dswp_ir::exec::Code`) must
//! map each program counter back to the IR instruction and block it came
//! from. The interpreter's block profile, its queue-instruction error and
//! the Machine's scoreboard all read the IR through those tables.
//!
//! Checked over every paper-suite kernel, before and after DSWP, and over
//! every `tests/fixtures/*.ir` file that parses (malformed ones included:
//! decoding must not reject what the parser accepts).

use dswp_repro::dswp::{dswp_loop, DswpOptions};
use dswp_repro::ir::exec::{Code, Instr};
use dswp_repro::ir::interp::Interpreter;
use dswp_repro::ir::{parse_program, BlockId, FuncId, Op, Program};
use dswp_repro::workloads::{paper_suite, Size};

/// Asserts that `program`'s decoded tables list every instruction of
/// every function in block order, that each block starts where its first
/// instruction sits, and that branch targets are those starts.
fn assert_tables_round_trip(name: &str, program: &Program) {
    let code = Code::new(program);
    for (fi, f) in program.functions().iter().enumerate() {
        let fid = FuncId::from_index(fi);
        let instrs = code.instrs(fid);
        let mut decoded = Vec::new();
        for pc in 0..instrs.len() as u32 {
            if instrs[pc as usize] != Instr::Unterminated {
                decoded.push((code.block(fid, pc), code.instr_id(fid, pc)));
            }
        }
        let ir: Vec<_> = f.instr_ids().collect();
        assert_eq!(decoded, ir, "{name}: {}", f.name);

        // The first pc of each block, read back from the pc→block table.
        let block_pc = |b: BlockId| {
            (0..instrs.len() as u32)
                .find(|&pc| code.block(fid, pc) == b)
                .unwrap_or_else(|| panic!("{name}: {} {b} has no pc", f.name))
        };
        for b in f.block_ids() {
            if let Some(&first) = f.block(b).instrs().first() {
                let start = block_pc(b);
                assert_eq!(code.instr_id(fid, start), first, "{name}: {} {b}", f.name);
            }
        }
        for (pc, instr) in instrs.iter().enumerate() {
            let id = code.instr_id(fid, pc as u32);
            match (instr, id.index() < f.num_instr_slots()) {
                (Instr::Jump { target }, true) => {
                    let Op::Jump { target: block } = *f.op(id) else {
                        panic!("{name}: pc {pc} decoded to a jump from {:?}", f.op(id));
                    };
                    assert_eq!(*target, block_pc(block), "{name}: pc {pc}");
                }
                (Instr::Br { then_, else_, .. }, true) => {
                    let Op::Br {
                        then_: t, else_: e, ..
                    } = *f.op(id)
                    else {
                        panic!("{name}: pc {pc} decoded to a branch from {:?}", f.op(id));
                    };
                    assert_eq!(
                        (*then_, *else_),
                        (block_pc(t), block_pc(e)),
                        "{name}: pc {pc}"
                    );
                }
                _ => {}
            }
        }
        let entry = code.new_frame(fid).pc;
        assert_eq!(entry, block_pc(f.entry()), "{name}: {}", f.name);
    }
}

#[test]
fn decoded_tables_round_trip_over_every_kernel_before_and_after_dswp() {
    for w in paper_suite(Size::Test) {
        assert_tables_round_trip(w.name, &w.program);
        let profile = Interpreter::new(&w.program).run().unwrap().profile;
        let mut p = w.program.clone();
        let main = p.main();
        dswp_loop(&mut p, main, w.header, &profile, &DswpOptions::default())
            .unwrap_or_else(|e| panic!("{}: DSWP failed: {e}", w.name));
        assert!(p.num_threads() > 1, "{}: not pipelined", w.name);
        assert_tables_round_trip(&format!("{} (dswp)", w.name), &p);
    }
}

#[test]
fn decoded_tables_round_trip_over_every_fixture() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut parsed = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "ir") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        if let Ok(p) = parse_program(&src) {
            assert_tables_round_trip(&path.display().to_string(), &p);
            parsed += 1;
        }
    }
    assert!(
        parsed >= 7,
        "only {parsed} fixtures parsed in {}",
        dir.display()
    );
}
