//! The trusted runtime (tRTS): EV64 assembly linked into **every** enclave.
//!
//! These are the functions that end up on the SgxElide whitelist — the
//! dispatch bridge, memory helpers, and the stack. They are never sanitized
//! because the dummy enclave defines exactly this set (§4.1).

/// Stack size reserved in `.bss` for the single enclave thread.
pub const STACK_SIZE: u64 = 64 * 1024;

/// Entry dispatch + memory helpers. The entry ABI is:
/// `r1` = ecall index, `r2` = input ptr, `r3` = input length,
/// `r4` = output ptr, `r5` = output capacity; the ecall's `r0` becomes the
/// `halt` status the host observes.
pub const TRTS_ASM: &str = r#"
; ---------------------------------------------------------------
; Trusted runtime (tRTS) for EV64 enclaves.
; ---------------------------------------------------------------
.section text

.global __enclave_entry
.func __enclave_entry
    la   r6, __stack_top
    mov  sp, r6
    la   r6, __ecall_table
    ld64 r7, [r6]            ; number of ecalls
    bgeu r1, r7, .bad_index
    shli r8, r1, 3
    add  r6, r6, r8
    ld64 r7, [r6+8]          ; function pointer
    callr r7
    halt                     ; r0 = ecall return value
.bad_index:
    movi r0, -1
    halt
.endfunc

; elide_memcpy(dst=r1, src=r2, len=r3) -> r0 = dst
; Disjoint copies dispatch to the sealed MEMCPY intrinsic (fuel ~ len/8);
; overlapping ranges — which the intrinsic rejects by contract — fall back
; to the original byte/word loop.
.global elide_memcpy
.func elide_memcpy
    mov  r0, r1
    movi r6, 0
    beq  r3, r6, .done       ; zero length: nothing to do
    sub  r6, r1, r2
    bltu r6, r3, .soft       ; dst inside [src, src+len): overlap
    sub  r6, r2, r1
    bltu r6, r3, .soft       ; src inside [dst, dst+len): overlap
    intrin 9                 ; MEMCPY
    mov  r0, r1
    ret
.soft:
    movi r6, 0
    movi r7, 8
.loop8:
    bltu r3, r7, .tail
    ld64 r5, [r2]
    st64 r5, [r1]
    addi r1, r1, 8
    addi r2, r2, 8
    addi r3, r3, -8
    jmp  .loop8
.tail:
    beq  r3, r6, .done
    ld8u r5, [r2]
    st8  r5, [r1]
    addi r1, r1, 1
    addi r2, r2, 1
    addi r3, r3, -1
    jmp  .tail
.done:
    ret
.endfunc

; elide_memset(dst=r1, byte=r2, len=r3) -> r0 = dst
.global elide_memset
.func elide_memset
    movi r6, 0
    beq  r3, r6, .done       ; zero length: the intrinsic faults on it
    intrin 10                ; MEMSET
.done:
    mov  r0, r1
    ret
.endfunc

; elide_memcmp(a=r1, b=r2, len=r3) -> r0 = 0 if equal, 1 otherwise
; (constant-time: the intrinsic always scans the full length)
.global elide_memcmp
.func elide_memcmp
    movi r0, 0
    movi r6, 0
    beq  r3, r6, .done       ; empty ranges compare equal
    intrin 11                ; MEMCMP
.done:
    ret
.endfunc

.section bss
.align 4096
.global __stack_bottom       ; elide_restore borrows the bottom as its buffer
__stack_bottom:
    .zero 65536
__stack_top:
    .zero 8
"#;

/// Builds the `__ecall_table` assembly from an ordered list of trusted
/// function names. The table layout is `[count: u64][fnptr; count]`, read by
/// `__enclave_entry`.
pub fn ecall_table_asm(ecalls: &[&str]) -> String {
    let mut s = String::from(".section rodata\n.align 8\n__ecall_table:\n");
    s.push_str(&format!("    .quad {}\n", ecalls.len()));
    for name in ecalls {
        s.push_str(&format!("    .quad {name}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use elide_vm::asm::assemble;

    #[test]
    fn trts_assembles() {
        let obj = assemble(TRTS_ASM).unwrap();
        assert!(obj.symbol("__enclave_entry").is_some());
        assert!(obj.symbol("elide_memcpy").is_some());
        assert!(obj.symbol("elide_memset").is_some());
        assert!(obj.symbol("elide_memcmp").is_some());
        let bottom = obj.symbol("__stack_bottom").unwrap();
        assert!(bottom.global, "the restorer links against the stack bottom");
        let top = obj.symbol("__stack_top").unwrap();
        assert_eq!(top.offset - bottom.offset, STACK_SIZE);
    }

    #[test]
    fn memory_helpers_dispatch_to_bulk_intrinsics() {
        use elide_vm::isa::{intrinsics, Instr, Opcode};
        let obj = assemble(TRTS_ASM).unwrap();
        let text = obj.section("text").unwrap();
        let imms: Vec<i32> = text
            .bytes
            .chunks_exact(8)
            .filter_map(|c| Instr::decode(c.try_into().unwrap()))
            .filter(|i| i.op == Opcode::Intrin)
            .map(|i| i.imm)
            .collect();
        assert!(imms.contains(&intrinsics::MEMCPY));
        assert!(imms.contains(&intrinsics::MEMSET));
        assert!(imms.contains(&intrinsics::MEMCMP));
    }

    #[test]
    fn ecall_table_asm_assembles() {
        let table = ecall_table_asm(&["f", "g"]);
        let full =
            format!(".section text\n.func f\nret\n.endfunc\n.func g\nret\n.endfunc\n{table}");
        let obj = assemble(&full).unwrap();
        let ro = obj.section("rodata").unwrap();
        assert_eq!(&ro.bytes[..8], &2u64.to_le_bytes());
        assert_eq!(ro.relocs.len(), 2);
    }
}
