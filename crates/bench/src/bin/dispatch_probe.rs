//! Isolates the execution engine's per-op cost from the guest memory
//! path: times a pure-ALU loop and a load-heavy loop on a raw [`Vm`] over
//! [`FlatMemory`], printing ns per retired instruction for both engines.
//! A diagnosis tool for translator work, not a tracked benchmark.

use elide_vm::interp::{Engine, Vm};
use elide_vm::isa::{Instr, Opcode};
use elide_vm::mem::FlatMemory;
use std::time::Instant;

const BASE: u64 = 0x10000;

fn assemble(instrs: &[Instr]) -> FlatMemory {
    let mut mem = FlatMemory::new(BASE, 0x4000);
    for (i, ins) in instrs.iter().enumerate() {
        for (j, byte) in ins.encode().iter().enumerate() {
            mem.write_at(BASE + (i as u64) * 8 + j as u64, &[*byte]);
        }
    }
    mem
}

fn run(name: &str, engine: Engine, instrs: &[Instr], iters: u64) {
    let mut mem = assemble(instrs);
    let mut vm = Vm::new(BASE);
    vm.set_engine(engine);
    vm.regs[2] = iters;
    vm.regs[10] = BASE + 0x2000; // scratch data area
    let t0 = Instant::now();
    let exit = vm.run(&mut mem, u64::MAX).expect("run");
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "{name:<24} {:?} retired={:>12} {:>8.2} ms {:>6.2} ns/instr {:>7.1} mips ({exit:?})",
        engine,
        vm.retired,
        dt * 1e3,
        dt * 1e9 / vm.retired as f64,
        vm.retired as f64 / dt / 1e6,
    );
}

fn main() {
    use Opcode::*;
    let iters: u64 = elide_bench::env_or("PROBE_ITERS", 2_000_000);

    // Pure ALU: 8 dependent-ish ALU ops + loop control per iteration.
    let alu = vec![
        Instr::new(Movi, 1, 0, 0, 0),
        // loop body (idx 1..)
        Instr::new(Add, 3, 3, 4, 0),
        Instr::new(Xor, 4, 4, 3, 0),
        Instr::new(Shli, 5, 3, 0, 7),
        Instr::new(Or, 6, 6, 5, 0),
        Instr::new(Sub, 7, 7, 4, 0),
        Instr::new(Add32, 8, 8, 3, 0),
        Instr::new(Rotl32i, 9, 8, 0, 5),
        Instr::new(Xor, 3, 3, 9, 0),
        Instr::new(Addi, 1, 1, 0, 1),
        Instr::new(Bltu, 1, 2, 0, -80),
        Instr::new(Halt, 0, 0, 0, 0),
    ];
    // Load-heavy: 4 loads + ALU + loop control per iteration.
    let mem_loop = vec![
        Instr::new(Movi, 1, 0, 0, 0),
        Instr::new(Ld64, 3, 10, 0, 0),
        Instr::new(Ld64, 4, 10, 0, 8),
        Instr::new(Add, 3, 3, 4, 0),
        Instr::new(Ld64, 5, 10, 0, 16),
        Instr::new(Ld64, 6, 10, 0, 24),
        Instr::new(Add, 5, 5, 6, 0),
        Instr::new(Xor, 3, 3, 5, 0),
        Instr::new(Addi, 1, 1, 0, 1),
        Instr::new(Bltu, 1, 2, 0, -72),
        Instr::new(Halt, 0, 0, 0, 0),
    ];
    // Store-free MovR shuffle: the cheapest possible ops.
    let movs = vec![
        Instr::new(Movi, 1, 0, 0, 0),
        Instr::new(Mov, 3, 4, 0, 0),
        Instr::new(Mov, 4, 5, 0, 0),
        Instr::new(Mov, 5, 6, 0, 0),
        Instr::new(Mov, 6, 7, 0, 0),
        Instr::new(Mov, 7, 8, 0, 0),
        Instr::new(Mov, 8, 9, 0, 0),
        Instr::new(Mov, 9, 3, 0, 0),
        Instr::new(Addi, 1, 1, 0, 1),
        Instr::new(Bltu, 1, 2, 0, -72),
        Instr::new(Halt, 0, 0, 0, 0),
    ];

    for (name, prog) in [("alu", &alu), ("mem", &mem_loop), ("movs", &movs)] {
        for engine in [Engine::Interp, Engine::Superblock] {
            run(name, engine, prog, iters);
        }
    }
}
