//! The Sanitizer (§4.2): takes an unsigned enclave and redacts every
//! function that is not on the whitelist, producing the sanitized enclave
//! plus `enclave.secret.meta` and `enclave.secret.data`.
//!
//! Per §5 it also ORs `PF_W` into the text segment's program header so the
//! (SGX-v1, permission-fixed-at-`EADD`) hardware will accept the runtime
//! self-modification, and records the offset of `elide_restore` from the
//! text start so restoration can be position-independent.

use crate::elide_asm::{RESTORE_CAP, SEAL_OVERHEAD};
use crate::error::ElideError;
use crate::meta::{SecretMeta, FLAG_ENCRYPTED_LOCAL, FLAG_RANGED};
use crate::whitelist::Whitelist;
use elide_crypto::gcm::AesGcm;
use elide_crypto::rng::RandomSource;
use elide_elf::patch::{or_segment_flags, read_vaddr_range, zero_vaddr_range};
use elide_elf::types::PF_W;
use elide_elf::ElfFile;

/// Where the secret data lives after sanitization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPlacement {
    /// Ship the data with the enclave, AES-GCM encrypted; the server holds
    /// only the key (the `-c` flag of the paper's sanitizer).
    LocalEncrypted,
    /// Keep the plaintext data on the server; nothing ships locally.
    Remote,
}

/// Output of the sanitizer.
pub struct SanitizedEnclave {
    /// The sanitized, unsigned enclave image (to be signed and shipped).
    pub image: Vec<u8>,
    /// `enclave.secret.meta` — server-only.
    pub meta: SecretMeta,
    /// The plaintext secret payload — server-only (remote mode) or the
    /// source of the local ciphertext.
    pub secret_data: Vec<u8>,
    /// `enclave.secret.data` to ship next to the enclave: the ciphertext in
    /// local mode, empty in remote mode.
    pub local_data_file: Vec<u8>,
    /// Names and byte sizes of the sanitized functions (Table 1 columns).
    pub sanitized_functions: Vec<(String, u64)>,
}

impl std::fmt::Debug for SanitizedEnclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SanitizedEnclave")
            .field("image_len", &self.image.len())
            .field("sanitized_functions", &self.sanitized_functions.len())
            .field("meta", &self.meta)
            .finish_non_exhaustive()
    }
}

/// Maximum text-section size the restorer can seal: the sealed blob of the
/// text must fit its buffer at the bottom of the enclave stack. Rounded
/// down to whole 8-byte instructions.
pub const MAX_TEXT_LEN: u64 = (RESTORE_CAP - SEAL_OVERHEAD) & !7;

fn prepare(image: &[u8]) -> Result<(ElfFile, u64, u64, u64), ElideError> {
    let elf = ElfFile::parse(image.to_vec())?;
    let text = elf
        .section_by_name(".text")
        .ok_or_else(|| ElideError::BadImage("no .text section".into()))?;
    if text.sh_size > MAX_TEXT_LEN {
        return Err(ElideError::BadImage(format!(
            "text section of {} bytes exceeds the {MAX_TEXT_LEN}-byte restore limit",
            text.sh_size
        )));
    }
    let restore = elf
        .symbol_by_name("elide_restore")
        .ok_or_else(|| ElideError::BadImage("enclave not linked with SgxElide".into()))?;
    let text_addr = text.sh_addr;
    let text_len = text.sh_size;
    let restore_offset = restore
        .value
        .checked_sub(text_addr)
        .ok_or_else(|| ElideError::BadImage("elide_restore outside .text".into()))?;
    Ok((elf, text_addr, text_len, restore_offset))
}

fn encrypt_payload(
    placement: DataPlacement,
    payload: &[u8],
    flags: u64,
    text_len: u64,
    restore_offset: u64,
    rng: &mut dyn RandomSource,
) -> (SecretMeta, Vec<u8>) {
    match placement {
        DataPlacement::LocalEncrypted => {
            let mut key = [0u8; 16];
            let mut iv = [0u8; 12];
            rng.fill(&mut key);
            rng.fill(&mut iv);
            let gcm = AesGcm::new(&key).expect("16-byte key");
            let (ciphertext, tag) = gcm.seal(&iv, &[], payload);
            let meta = SecretMeta {
                flags: flags | FLAG_ENCRYPTED_LOCAL,
                data_len: payload.len() as u64,
                text_len,
                restore_offset,
                key,
                iv,
                tag,
            };
            (meta, ciphertext)
        }
        DataPlacement::Remote => {
            let meta = SecretMeta {
                flags,
                data_len: payload.len() as u64,
                text_len,
                restore_offset,
                key: [0; 16],
                iv: [0; 12],
                tag: [0; 16],
            };
            (meta, Vec::new())
        }
    }
}

/// Sanitizes `image` using the whitelist: every function symbol *not* on
/// the whitelist is zeroed; the secret payload is the entire original text
/// section (the paper's simple, self-contained choice in §5).
///
/// # Errors
///
/// * [`ElideError::BadImage`] — the image lacks `.text` or was not linked
///   with the SgxElide runtime (`elide_restore` missing).
pub fn sanitize(
    image: &[u8],
    whitelist: &Whitelist,
    placement: DataPlacement,
    rng: &mut dyn RandomSource,
) -> Result<SanitizedEnclave, ElideError> {
    let (mut elf, text_addr, text_len, restore_offset) = prepare(image)?;

    // Save the original text before redaction.
    let secret_data = read_vaddr_range(&elf, text_addr, text_len)?;

    // Redact every non-whitelisted function.
    let targets: Vec<(String, u64, u64)> = elf
        .function_symbols()
        .filter(|s| !whitelist.contains(&s.name))
        .map(|s| (s.name.clone(), s.value, s.size))
        .collect();
    let mut sanitized_functions = Vec::with_capacity(targets.len());
    for (name, value, size) in targets {
        zero_vaddr_range(&mut elf, value, size)?;
        sanitized_functions.push((name, size));
    }

    // Make the text segment writable for the life of the enclave (§5).
    or_segment_flags(&mut elf, text_addr, PF_W)?;

    let (meta, local_data_file) =
        encrypt_payload(placement, &secret_data, 0, text_len, restore_offset, rng);

    Ok(SanitizedEnclave {
        image: elf.into_bytes(),
        meta,
        secret_data,
        local_data_file,
        sanitized_functions,
    })
}

/// Blacklist-mode sanitization (§3.2's initial approach, kept as an
/// ablation): only the named `secret_functions` are redacted, and the
/// payload is a ranged record set — `[count][(offset, len)*][bytes]` —
/// instead of the whole text section, trading transparency for a smaller
/// secret payload.
///
/// # Errors
///
/// * [`ElideError::BadImage`] — a named function does not exist, or the
///   image was not linked with SgxElide.
pub fn sanitize_blacklist(
    image: &[u8],
    secret_functions: &[&str],
    placement: DataPlacement,
    rng: &mut dyn RandomSource,
) -> Result<SanitizedEnclave, ElideError> {
    let (mut elf, text_addr, text_len, restore_offset) = prepare(image)?;

    let mut entries: Vec<(u64, u64)> = Vec::new();
    let mut bytes: Vec<u8> = Vec::new();
    let mut sanitized_functions = Vec::new();
    for name in secret_functions {
        let sym = elf
            .symbol_by_name(name)
            .ok_or_else(|| ElideError::BadImage(format!("secret function {name} not found")))?
            .clone();
        if !sym.is_function() {
            return Err(ElideError::BadImage(format!("{name} is not a function")));
        }
        let body = read_vaddr_range(&elf, sym.value, sym.size)?;
        let off = sym.value.checked_sub(text_addr).ok_or_else(|| {
            ElideError::BadImage(format!("secret function {name} lies below .text"))
        })?;
        entries.push((off, sym.size));
        bytes.extend_from_slice(&body);
        sanitized_functions.push((sym.name.clone(), sym.size));
        zero_vaddr_range(&mut elf, sym.value, sym.size)?;
    }

    // Ranged payload: [count u64][(off u64, len u64)*count][bytes...]
    let mut payload = Vec::with_capacity(8 + entries.len() * 16 + bytes.len());
    payload.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (off, len) in &entries {
        payload.extend_from_slice(&off.to_le_bytes());
        payload.extend_from_slice(&len.to_le_bytes());
    }
    payload.extend_from_slice(&bytes);
    // The guest decrypts the payload in its restore buffer, between the
    // channel's 12-byte IV and 16-byte tag.
    if payload.len() as u64 > RESTORE_CAP - 28 {
        return Err(ElideError::BadImage(format!(
            "ranged payload of {} bytes exceeds the restore buffer",
            payload.len()
        )));
    }

    or_segment_flags(&mut elf, text_addr, PF_W)?;

    let (meta, local_data_file) =
        encrypt_payload(placement, &payload, FLAG_RANGED, text_len, restore_offset, rng);

    Ok(SanitizedEnclave {
        image: elf.into_bytes(),
        meta,
        secret_data: payload,
        local_data_file,
        sanitized_functions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elide_asm::ELIDE_ASM;
    use elide_crypto::rng::SeededRandom;
    use elide_elf::types::{PF_R, PF_X};
    use elide_enclave::image::EnclaveImageBuilder;

    fn build_image() -> Vec<u8> {
        let mut b = EnclaveImageBuilder::new();
        b.source(ELIDE_ASM);
        b.source(
            ".section text\n.global secret_fn\n.func secret_fn\n    movi r0, 777\n    ret\n.endfunc\n\
             .global secret_helper\n.func secret_helper\n    movi r0, 888\n    ret\n.endfunc\n",
        );
        b.ecall("secret_fn").ecall("elide_restore");
        b.build().unwrap()
    }

    fn wl() -> Whitelist {
        Whitelist::from_dummy_enclave().unwrap()
    }

    #[test]
    fn whitelist_mode_redacts_user_functions_only() {
        let image = build_image();
        let mut rng = SeededRandom::new(1);
        let out = sanitize(&image, &wl(), DataPlacement::Remote, &mut rng).unwrap();
        let names: Vec<&str> = out.sanitized_functions.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"secret_fn"));
        assert!(names.contains(&"secret_helper"));
        assert!(!names.contains(&"elide_restore"));
        assert!(!names.contains(&"elide_memcpy"));

        // The secret function bytes are zero in the sanitized image...
        let elf = ElfFile::parse(out.image.clone()).unwrap();
        let sym = elf.symbol_by_name("secret_fn").unwrap();
        let body = read_vaddr_range(&elf, sym.value, sym.size).unwrap();
        assert!(body.iter().all(|&b| b == 0));
        // ...but elide_restore is intact.
        let restore = elf.symbol_by_name("elide_restore").unwrap();
        let body = read_vaddr_range(&elf, restore.value, restore.size).unwrap();
        assert!(body.iter().any(|&b| b != 0));
    }

    #[test]
    fn text_segment_becomes_writable() {
        let image = build_image();
        let before = ElfFile::parse(image.clone()).unwrap();
        let text_addr = before.section_by_name(".text").unwrap().sh_addr;
        let seg = before
            .segments()
            .iter()
            .find(|s| s.p_vaddr <= text_addr && text_addr < s.p_vaddr + s.p_memsz)
            .unwrap();
        assert_eq!(seg.p_flags, PF_R | PF_X);

        let mut rng = SeededRandom::new(1);
        let out = sanitize(&image, &wl(), DataPlacement::Remote, &mut rng).unwrap();
        let after = ElfFile::parse(out.image).unwrap();
        let seg = after
            .segments()
            .iter()
            .find(|s| s.p_vaddr <= text_addr && text_addr < s.p_vaddr + s.p_memsz)
            .unwrap();
        assert_eq!(seg.p_flags, PF_R | PF_W | PF_X);
    }

    #[test]
    fn remote_mode_keeps_data_off_disk() {
        let image = build_image();
        let mut rng = SeededRandom::new(1);
        let out = sanitize(&image, &wl(), DataPlacement::Remote, &mut rng).unwrap();
        assert!(out.local_data_file.is_empty());
        assert!(!out.meta.is_local());
        assert_eq!(out.meta.data_len, out.secret_data.len() as u64);
        assert_eq!(out.meta.data_len, out.meta.text_len);
    }

    #[test]
    fn local_mode_encrypts_data_file() {
        let image = build_image();
        let mut rng = SeededRandom::new(1);
        let out = sanitize(&image, &wl(), DataPlacement::LocalEncrypted, &mut rng).unwrap();
        assert!(out.meta.is_local());
        assert_eq!(out.local_data_file.len(), out.secret_data.len());
        assert_ne!(out.local_data_file, out.secret_data);
        // The ciphertext decrypts back to the original text under the meta key.
        let gcm = AesGcm::new(&out.meta.key).unwrap();
        let plain = gcm.open(&out.meta.iv, &[], &out.local_data_file, &out.meta.tag).unwrap();
        assert_eq!(plain, out.secret_data);
    }

    #[test]
    fn secret_data_is_the_original_text() {
        let image = build_image();
        let elf = ElfFile::parse(image.clone()).unwrap();
        let text = elf.section_by_name(".text").unwrap();
        let original = elf.section_data(text).unwrap().to_vec();
        let mut rng = SeededRandom::new(1);
        let out = sanitize(&image, &wl(), DataPlacement::Remote, &mut rng).unwrap();
        assert_eq!(out.secret_data, original);
        assert_eq!(
            out.meta.restore_offset,
            elf.symbol_by_name("elide_restore").unwrap().value - text.sh_addr
        );
    }

    #[test]
    fn image_without_elide_runtime_rejected() {
        let mut b = EnclaveImageBuilder::new();
        b.source(".section text\n.global f\n.func f\nret\n.endfunc\n");
        b.ecall("f");
        let image = b.build().unwrap();
        let mut rng = SeededRandom::new(1);
        let err = sanitize(&image, &wl(), DataPlacement::Remote, &mut rng).unwrap_err();
        assert!(matches!(err, ElideError::BadImage(_)));
    }

    #[test]
    fn image_without_text_section_rejected() {
        // An ELF with no `.text` at all used to panic inside `prepare`;
        // it must be a typed BadImage error.
        use elide_elf::builder::{ElfBuilder, SectionSpec};
        use elide_elf::types::{SHF_ALLOC, SHF_EXECINSTR};
        let mut b = ElfBuilder::new(0x100000);
        b.add_section(SectionSpec::progbits(".code", SHF_ALLOC | SHF_EXECINSTR, vec![1, 2, 3]));
        let image = b.build().unwrap();
        let mut rng = SeededRandom::new(1);
        let err = sanitize(&image, &wl(), DataPlacement::Remote, &mut rng).unwrap_err();
        assert!(matches!(&err, ElideError::BadImage(m) if m.contains("no .text")), "{err}");
        let err = sanitize_blacklist(&image, &[], DataPlacement::Remote, &mut rng).unwrap_err();
        assert!(matches!(&err, ElideError::BadImage(m) if m.contains("no .text")), "{err}");
    }

    #[test]
    fn garbage_bytes_rejected() {
        let mut rng = SeededRandom::new(1);
        assert!(sanitize(&[0u8; 64], &wl(), DataPlacement::Remote, &mut rng).is_err());
        assert!(sanitize(b"not an elf", &wl(), DataPlacement::Remote, &mut rng).is_err());
    }

    #[test]
    fn blacklist_mode_redacts_only_named_functions() {
        let image = build_image();
        let mut rng = SeededRandom::new(1);
        let out =
            sanitize_blacklist(&image, &["secret_fn"], DataPlacement::Remote, &mut rng).unwrap();
        assert_eq!(out.sanitized_functions.len(), 1);
        assert!(out.meta.is_ranged());
        let elf = ElfFile::parse(out.image).unwrap();
        // secret_helper was NOT redacted in blacklist mode.
        let helper = elf.symbol_by_name("secret_helper").unwrap();
        let body = read_vaddr_range(&elf, helper.value, helper.size).unwrap();
        assert!(body.iter().any(|&b| b != 0));
        // Payload is much smaller than the whole text.
        assert!(out.secret_data.len() < out.meta.text_len as usize / 2);
    }

    #[test]
    fn blacklist_unknown_function_rejected() {
        let image = build_image();
        let mut rng = SeededRandom::new(1);
        assert!(matches!(
            sanitize_blacklist(&image, &["ghost"], DataPlacement::Remote, &mut rng),
            Err(ElideError::BadImage(_))
        ));
    }

    #[test]
    fn sanitized_image_measures_differently() {
        let image = build_image();
        let mut rng = SeededRandom::new(1);
        let out = sanitize(&image, &wl(), DataPlacement::Remote, &mut rng).unwrap();
        let m1 = elide_enclave::loader::measure_enclave(&image).unwrap();
        let m2 = elide_enclave::loader::measure_enclave(&out.image).unwrap();
        assert_ne!(m1, m2, "sanitization must change MRENCLAVE (dummy enclave is signed)");
    }
}
