//! The SgxElide in-enclave runtime: `elide_restore` in EV64 assembly.
//!
//! This code is linked into every protected enclave and is, together with
//! the tRTS, exactly what the whitelist keeps unsanitized — the enclave
//! boots with only this code intact and restores everything else.
//!
//! The restore flow implements Figure 2 of the paper:
//!
//! 1. Try the sealed blob (step ❼ of a previous run) — restore without any
//!    server contact if it unseals. The blob's `[text_len][restore_off]`
//!    header is sealed with the text, so the host cannot move it.
//! 2. Otherwise run the attested handshake: DH keygen, `EREPORT` binding
//!    SHA-256 of the DH public value, ocall to the server (the host turns
//!    the report into a quote), derive the session key.
//! 3. `REQUEST_META` (step ❷/❸): fetch and decrypt the metadata.
//! 4. Local data: `elide_read_file` + AES-GCM with the key from the meta
//!    (steps ➃/➄). Remote data: `REQUEST_DATA` over the channel (❹/❺).
//! 5. Decrypt the original bytes over the sanitized text (step ❻), computing
//!    the text base *position-independently* from `elide_restore`'s own
//!    address minus the offset carried in the metadata (§5).
//! 6. Seal the restored text and hand it to the host (step ❼).
//!
//! The restorer owns no buffer: every untrusted input is copied into the
//! bottom of the enclave stack before use (see [`RESTORE_CAP`]).

/// Ocall index for `elide_server_request` (r1 = request type, r2/r3 = in
/// ptr/len, r4/r5 = out ptr/cap; returns response length or negative).
pub const OCALL_SERVER_REQUEST: i32 = 100;
/// Ocall index for `elide_read_file` (r1 = file id: 0 = secret data,
/// 1 = sealed blob; r4/r5 = out ptr/cap; returns length or negative).
pub const OCALL_READ_FILE: i32 = 101;
/// Ocall index for `elide_write_file` (r1 = file id, r2/r3 = ptr/len).
pub const OCALL_WRITE_FILE: i32 = 102;

/// Request type bytes of the single-byte server protocol (§5).
pub mod request {
    /// Fetch the secret metadata.
    pub const META: u64 = 1;
    /// Fetch the secret data.
    pub const DATA: u64 = 2;
    /// Attested DH handshake (precedes META/DATA).
    pub const HANDSHAKE: u64 = 3;
    /// Issue a sealed resumption ticket for the established session.
    pub const TICKET: u64 = 4;
    /// Resume a prior session from a ticket, skipping the handshake.
    pub const RESUME: u64 = 5;
    /// Fetch a signed delegation bundle (policy + peer secrets) for the
    /// established session's enclave, authorizing it to provision local
    /// peers without further origin contact. Origin-server only.
    pub const DELEGATE: u64 = 6;
    /// Peer-to-delegate local attestation: a report targeted at the
    /// delegate's MRENCLAVE plus the peer's DH public value. Served by a
    /// delegate enclave, never by the origin server.
    pub const PEER_ATTEST: u64 = 7;
    /// Fetch the re-sealed restore payload over the peer-attested channel.
    /// Served by a delegate enclave, never by the origin server.
    pub const PEER_RESTORE: u64 = 8;
}

/// Error codes `elide_restore` returns in `r0`.
pub mod restore_status {
    /// Restoration succeeded.
    pub const OK: u64 = 0;
    /// Handshake ocall failed (server unreachable — the DoS case §3.1).
    pub const HANDSHAKE_FAILED: u64 = 1;
    /// DH derivation rejected the server's public value.
    pub const BAD_SERVER_KEY: u64 = 2;
    /// Metadata request or decryption failed.
    pub const META_FAILED: u64 = 3;
    /// Data request/read failed.
    pub const DATA_FAILED: u64 = 4;
    /// Data decryption failed (wrong key or tampered ciphertext).
    pub const DATA_AUTH_FAILED: u64 = 5;
}

/// Untrusted scratch area used by the elide ocalls (request payloads).
pub const UELIDE_REQ: u64 = 0x7004_0000;
/// Untrusted scratch area for server responses.
pub const UELIDE_RESP: u64 = 0x7006_0000;

/// Bytes at the top of the enclave stack kept for `elide_restore`'s own
/// frames. The restorer always enters on an empty stack (`__enclave_entry`
/// resets `sp` to `__stack_top`, and ecall inputs are marshalled to
/// untrusted memory, not onto the stack); its deepest call chain — the
/// entry's return address, four saved words in the ranged scatter loop and
/// one `elide_memcpy` return address — is 48 bytes, so one page leaves
/// ample headroom. The sealed fast path also puts its 16-byte seal key
/// right after the blob, at most 16 bytes into the reserve.
pub const RESTORE_RESERVE: u64 = 4096;

/// Capacity of the restorer's only buffer, borrowed from the bottom of the
/// enclave stack: `[__stack_bottom, __stack_bottom + RESTORE_CAP)`. Every
/// untrusted input is copied in here before use, ranged data is decrypted
/// here, and the seal is built here. The guest's length guards and
/// [`crate::sanitizer::MAX_TEXT_LEN`] both derive from it.
pub const RESTORE_CAP: u64 = elide_enclave::trts::STACK_SIZE - RESTORE_RESERVE;

/// Bytes a sealed blob adds to the text it seals: a 12-byte IV, the sealed
/// 16-byte `[text_len][restore_off]` header and the 16-byte GCM tag.
pub const SEAL_OVERHEAD: u64 = 12 + 16 + 16;

/// The `elide_restore` implementation and its state slots, with a
/// `0x________` hole at each length guard that [`splice_cap`] fills with
/// [`RESTORE_CAP`] at compile time.
const ELIDE_ASM_SRC: &str = r#"
; ---------------------------------------------------------------
; SgxElide runtime restorer (whitelisted code).
; ---------------------------------------------------------------
.section text

.global elide_restore
.func elide_restore
    ldpc r14
    addi r14, r14, -8        ; r14 = &elide_restore (PIC anchor)
    ; Optional ecall input: a 32-byte target MRENCLAVE selects delegated
    ; provisioning (the handshake report is retargeted from the quoting
    ; enclave to a local delegate). Empty input keeps the classic path.
    mov  r10, r2             ; ecall input ptr
    mov  r11, r3             ; ecall input len

    ; ---------- fast path: sealed blob from a previous run ----------
    ; Registers and intrinsics only: under a tight EPC budget every stack
    ; touch pages the frame page back in.
    movi r1, 1               ; file id 1 = sealed blob
    li   r4, 0x70040000
    li   r5, 0x80000
    ocall 101                ; elide_read_file
    ; blob layout: [iv 12][ct][tag 16], sealing [text_len][restore_off][text].
    ; The blob comes from UNTRUSTED storage: copy it in, and trust none of
    ; its fields before the tag verifies them.
    movi r6, 44
    bltu r0, r6, .no_seal    ; too short for IV + header + tag
    li   r6, 0x________      ; RESTORE_CAP
    bltu r6, r0, .no_seal    ; larger than the restore buffer (or -1: none)
    mov  r9, r0              ; blob length
    la   r8, __stack_bottom
    mov  r1, r8
    li   r2, 0x70040000
    mov  r3, r9
    intrin 9                 ; MEMCPY: copy the blob in
    add  r13, r8, r9         ; seal key right after the blob, in its page
    movi r1, 0               ; seal key policy = MRENCLAVE
    mov  r2, r13
    intrin 4                 ; EGETKEY
    mov  r1, r13
    mov  r2, r8              ; iv
    addi r3, r8, 12          ; ct
    addi r4, r9, -28         ; header + text
    addi r5, r8, 12          ; decrypt in place
    intrin 1                 ; AESGCM_DECRYPT
    movi r6, 0
    bne  r0, r6, .no_seal    ; rebuilt enclave or tampered blob: full path
    ld64 r12, [r8+12]        ; text_len (authenticated)
    ld64 r13, [r8+20]        ; restore_off (authenticated)
    addi r6, r12, 44
    bne  r6, r9, .no_seal    ; length field inconsistent with the blob
    bgeu r13, r12, .no_seal  ; offset must be inside the text section
    sub  r1, r14, r13        ; text base
    addi r2, r8, 28
    mov  r3, r12
    intrin 9                 ; MEMCPY: the genuine text over the sanitized one
    movi r0, 0
    ret

.no_seal:
    ; ---------- attested handshake ----------
    la   r1, __elide_dh_pub
    intrin 6                 ; DH_KEYGEN -> r0 = pub len
    mov  r9, r0              ; (r9 survives memcpy)
    la   r1, __elide_report_data
    movi r2, 0
    movi r3, 64
    call elide_memset
    la   r1, __elide_dh_pub
    mov  r2, r9
    la   r3, __elide_report_data
    intrin 3                 ; SHA256(dh_pub) -> report_data
    la   r1, __elide_report_data
    la   r2, __elide_report
    movi r7, 32
    bne  r11, r7, .qe_report
    mov  r3, r10             ; 32-byte delegate MRENCLAVE from the input
    intrin 13                ; EREPORT_TARGETED (attest to the delegate)
    jmp  .report_done
.qe_report:
    intrin 5                 ; EREPORT (quoting-enclave target)
.report_done:
    ; request payload: report(160) || dh_pub
    li   r1, 0x70040000
    la   r2, __elide_report
    movi r3, 160
    call elide_memcpy
    li   r1, 0x70040000
    addi r1, r1, 160
    la   r2, __elide_dh_pub
    mov  r3, r9
    call elide_memcpy
    movi r1, 3               ; REQUEST_HANDSHAKE
    li   r2, 0x70040000
    addi r3, r9, 160         ; 160-byte report + DH public value
    li   r4, 0x70060000
    li   r5, 0x20000
    ocall 100
    movi r6, 0
    blts r0, r6, .fail_handshake
    mov  r12, r0             ; server pub length (r12 survives memcpy)
    li   r2, 0x70060000
    mov  r3, r0
    call elide_copy_in
    movi r6, 0
    beq  r0, r6, .fail_badkey
    mov  r1, r0
    mov  r2, r12
    la   r3, __elide_session_key
    intrin 7                 ; DH_DERIVE
    movi r6, 0
    bne  r0, r6, .fail_badkey

    ; ---------- REQUEST_META (steps 2/3) ----------
    movi r1, 1
    li   r2, 0
    movi r3, 0
    li   r4, 0x70060000
    li   r5, 0x20000
    ocall 100
    movi r6, 108
    bne  r0, r6, .fail_meta  ; IV + 80-byte body + tag, exactly
    li   r2, 0x70060000
    mov  r3, r0
    call elide_copy_in
    mov  r2, r0              ; iv
    addi r3, r0, 12
    movi r4, 80
    la   r1, __elide_session_key
    la   r5, __elide_meta
    intrin 1
    movi r6, 0
    bne  r0, r6, .fail_meta
    la   r8, __elide_meta
    ld64 r10, [r8]           ; flags
    ld64 r11, [r8+8]         ; data_len
    ld64 r12, [r8+16]        ; text_len
    ld64 r13, [r8+24]        ; restore_offset
    sub  r14, r14, r13       ; text base = &elide_restore - restore_offset

    li   r6, 0x________      ; RESTORE_CAP
    bltu r6, r11, .fail_data ; data_len beyond the restore buffer
    addi r6, r6, -44
    bltu r6, r12, .fail_data ; the text's seal must fit the buffer too
    bgeu r13, r12, .fail_data ; restore_offset outside the text
    andi r6, r10, 2
    movi r7, 0
    bne  r6, r7, .sized
    bne  r11, r12, .fail_data ; whitelist data is exactly the text it overwrites
.sized:
    andi r6, r10, 1
    beq  r6, r7, .remote

    ; ---------- local data: read file, decrypt with meta key ----------
    movi r1, 0               ; file id 0 = secret data
    li   r4, 0x70040000
    li   r5, 0x80000
    ocall 101
    bne  r0, r11, .fail_data ; the file must hold exactly data_len bytes
    li   r2, 0x70040000
    addi r3, r11, 16         ; plus room for the tag, which lives in the meta
    call elide_copy_in
    movi r6, 0
    beq  r0, r6, .fail_data
    mov  r8, r0
    add  r1, r8, r11
    la   r2, __elide_meta
    addi r2, r2, 64          ; tag
    movi r3, 16
    call elide_memcpy
    la   r1, __elide_meta
    addi r1, r1, 32          ; key
    addi r2, r1, 16          ; iv
    mov  r3, r8
    jmp  .decrypt

.remote:
    ; ---------- remote data over the channel (steps 4/5) ----------
    movi r1, 2               ; REQUEST_DATA
    li   r2, 0
    movi r3, 0
    li   r4, 0x70060000
    li   r5, 0x80000
    ocall 100
    addi r6, r11, 28
    bltu r0, r6, .fail_data  ; shorter than IV + data_len bytes + tag
    li   r2, 0x70060000
    mov  r3, r0
    call elide_copy_in
    movi r6, 0
    beq  r0, r6, .fail_data  ; larger than the restore buffer (or -1)
    mov  r8, r0
    la   r1, __elide_session_key
    mov  r2, r8              ; iv
    addi r3, r8, 12

.decrypt:
    ; ---------- step 6: decrypt the original bytes into place ----------
    ; The tag is verified before a byte is written, so a failure leaves
    ; the sanitized text untouched.
    mov  r4, r11
    mov  r5, r14             ; whitelist: straight over the text section
    andi r6, r10, 2
    movi r7, 0
    beq  r6, r7, .open
    mov  r5, r8              ; ranged: in place, scattered below
.open:
    intrin 1                 ; AESGCM_DECRYPT
    bne  r0, r7, .fail_auth
    beq  r6, r7, .seal

    ; blacklist mode: data = [count u64][(off u64, len u64)*][bytes...]
    ld64 r9, [r8]            ; count
    addi r5, r8, 8           ; entry cursor
    shli r6, r9, 4
    add  r6, r5, r6          ; bytes cursor
.rloop:
    beq  r9, r7, .seal
    ld64 r1, [r5]            ; offset
    add  r1, r14, r1
    ld64 r3, [r5+8]          ; length
    mov  r2, r6
    add  r6, r6, r3
    addi r5, r5, 16
    push r5
    push r6
    push r7
    push r9
    call elide_memcpy
    pop  r9
    pop  r7
    pop  r6
    pop  r5
    addi r9, r9, -1
    jmp  .rloop

.seal:
    ; ---------- step 7: seal for server-free future launches ----------
    ; plaintext [text_len][restore_offset][text] at buf+12, sealed in place
    la   r8, __stack_bottom
    st64 r12, [r8+12]
    st64 r13, [r8+20]
    addi r1, r8, 28
    mov  r2, r14             ; the restored text
    mov  r3, r12
    call elide_memcpy
    mov  r1, r8
    movi r2, 12
    intrin 8                 ; RAND iv
    movi r1, 0
    la   r2, __elide_seal_key
    intrin 4                 ; EGETKEY
    la   r1, __elide_seal_key
    mov  r2, r8
    addi r3, r8, 12
    addi r4, r12, 16
    addi r5, r8, 12
    intrin 2                 ; AESGCM_ENCRYPT (ct || tag)
    li   r1, 0x70040000
    mov  r2, r8
    addi r3, r12, 44         ; iv 12 + header 16 + text_len + tag 16
    call elide_memcpy
    movi r1, 1
    li   r2, 0x70040000
    addi r3, r12, 44
    ocall 102                ; elide_write_file (best effort)
    movi r0, 0
    jmp  .done

.fail_handshake:
    movi r0, 1
    jmp  .done
.fail_badkey:
    movi r0, 2
    jmp  .done
.fail_meta:
    movi r0, 3
    jmp  .done
.fail_data:
    movi r0, 4
    jmp  .done
.fail_auth:
    movi r0, 5
.done:
    ret
.endfunc

; elide_copy_in(src=r2, len=r3) -> r0 = the restore buffer holding a copy
; of [src, src+len), or 0 when len exceeds it. The buffer is the bottom of
; the enclave stack; elide_restore's frames stay in the reserve above it.
.func elide_copy_in
    li   r6, 0x________      ; RESTORE_CAP
    bltu r6, r3, .too_big
    la   r1, __stack_bottom
    jmp  elide_memcpy        ; returns r0 = dst
.too_big:
    movi r0, 0
    ret
.endfunc

; Verify a peer's local-attestation report targeted at THIS enclave.
; Whitelisted (part of the elide runtime), so a provisioned delegate can
; serve neighbors — and it works even pre-restore, which lets a freshly
; launched delegate instance act as the verifier for its twin.
; Input (ecall marshal): the 160-byte serialized report in r2/r3.
; Returns 0 = report genuine (same processor, targeted at us),
;         1 = MAC/parse failure, 2 = wrong input length.
.global elide_verify_report
.func elide_verify_report
    movi r6, 160
    bne  r3, r6, .vr_badlen
    mov  r1, r2
    intrin 14                ; VERIFY_REPORT -> r0 = 0 ok / 1 bad
    ret
.vr_badlen:
    movi r0, 2
    ret
.endfunc

.section bss
.align 16
__elide_session_key:
    .zero 16
__elide_seal_key:
    .zero 16
__elide_dh_pub:
    .zero 128
__elide_report_data:
    .zero 64
__elide_report:
    .zero 192
__elide_meta:
    .zero 96
"#;

/// Copies `src` with every `0x________` hole replaced by `cap` as eight hex
/// digits. Holes keep the source length, so the output is the same size.
const fn splice_cap<const N: usize>(src: &str, cap: u64) -> [u8; N] {
    assert!(cap < 1 << 31, "a one-instruction `li` immediate");
    let src = src.as_bytes();
    let mut out = [0u8; N];
    let mut i = 0;
    while i < N {
        out[i] = src[i];
        i += 1;
    }
    let mut i = 0;
    while i + 10 <= N {
        if out[i] == b'0' && out[i + 1] == b'x' && out[i + 2] == b'_' {
            let mut d = 0;
            while d < 8 {
                out[i + 2 + d] = b"0123456789abcdef"[((cap >> (28 - 4 * d)) & 0xF) as usize];
                d += 1;
            }
        }
        i += 1;
    }
    out
}

const ELIDE_ASM_BYTES: [u8; ELIDE_ASM_SRC.len()] = splice_cap(ELIDE_ASM_SRC, RESTORE_CAP);

/// The `elide_restore` implementation and its state slots, with
/// [`RESTORE_CAP`] in its length guards.
pub const ELIDE_ASM: &str = match std::str::from_utf8(&ELIDE_ASM_BYTES) {
    Ok(s) => s,
    Err(_) => panic!("the restorer source is ASCII"),
};

#[cfg(test)]
mod tests {
    use super::*;
    use elide_vm::asm::assemble;

    #[test]
    fn elide_asm_assembles() {
        let obj = assemble(ELIDE_ASM).unwrap();
        let restore = obj.symbol("elide_restore").unwrap();
        assert!(restore.global);
        assert!(restore.size > 0);
        let verify = obj.symbol("elide_verify_report").unwrap();
        assert!(verify.global);
        assert!(verify.size > 0);
    }

    #[test]
    fn bss_holds_only_the_state_slots() {
        // Keys, DH value, report and meta; the buffer is the stack's.
        let obj = assemble(ELIDE_ASM).unwrap();
        assert!(obj.section("bss").unwrap().size < 1024);
    }

    #[test]
    fn every_length_guard_carries_the_restore_cap() {
        assert!(!ELIDE_ASM.contains("0x_"), "an unfilled capacity hole");
        let cap = format!("li   r6, {RESTORE_CAP:#010x}");
        assert_eq!(ELIDE_ASM.matches(&cap).count(), 3, "sealed blob, meta check, copy-in");
    }
}
