//! Decode-cache coherence at the enclave level: the execution fast path
//! must never serve stale instructions across the ways SgxElide mutates
//! code — sanitization (zeroed pages must fault), restoration (new bytes
//! must run), and in-enclave self-patching on the writable text pages the
//! sanitizer leaves behind.

use sgxelide::apps::harness::{launch_protected, App};
use sgxelide::core::sanitizer::DataPlacement;
use sgxelide::enclave::error::EnclaveError;
use sgxelide::vm::isa::{Instr, Opcode};
use sgxelide::vm::mem::VmFault;

/// Guest whose `patcher` ecall memcpys fresh machine code from rodata over
/// `victim` and calls it *within the same ecall* — the enclave analog of
/// JIT patching, and the sharpest stale-icache probe available.
fn jit_patch_app() -> App {
    let patched: Vec<String> = Instr::new(Opcode::Movi, 0, 0, 0, 77)
        .encode()
        .iter()
        .chain(Instr::new(Opcode::Ret, 0, 0, 0, 0).encode().iter())
        .map(|b| b.to_string())
        .collect();
    App {
        name: "jitpatch",
        asm: format!(
            ".section text\n\
             .global patcher\n.func patcher\n\
             \x20   la   r1, victim\n\
             \x20   la   r2, newcode\n\
             \x20   movi r3, 16\n\
             \x20   call elide_memcpy\n\
             \x20   call victim\n\
             \x20   ret\n.endfunc\n\
             .global victim\n.func victim\n\
             \x20   movi r0, 7\n\
             \x20   ret\n.endfunc\n\
             .section rodata\n\
             newcode: .byte {}\n",
            patched.join(",")
        ),
        ecalls: vec!["patcher", "victim"],
    }
}

#[test]
fn self_patch_within_one_ecall_executes_new_code() {
    let app = jit_patch_app();
    let mut p = launch_protected(&app, DataPlacement::Remote, 0xFA57).unwrap();
    p.restore().unwrap();
    // Unpatched behaviour first, to warm the code cache on victim's page.
    assert_eq!(p.app.runtime.ecall(p.indices["victim"], &[], 0).unwrap().status, 7);
    // Patch + call in one ecall: stale decode would still return 7.
    assert_eq!(p.app.runtime.ecall(p.indices["patcher"], &[], 0).unwrap().status, 77);
    // The patch persists for later ecalls.
    assert_eq!(p.app.runtime.ecall(p.indices["victim"], &[], 0).unwrap().status, 77);
}

/// Restored SgxElide code must actually run through the superblock tier:
/// restoration rewrites text pages, which moves their generations — the
/// translator must re-translate and then keep serving translated blocks,
/// not fall back to the interpreter loop forever.
#[test]
fn restored_code_retires_through_the_superblock_tier() {
    use sgxelide::apps::run_workload;
    use sgxelide::vm::interp::Engine;

    let app = sgxelide::apps::sha1_app::app();
    let mut p = launch_protected(&app, DataPlacement::Remote, 0xFA59).unwrap();
    p.restore().unwrap();
    assert_eq!(p.app.runtime.engine(), Engine::Superblock, "superblocks are the default");

    let before = p.app.runtime.exec_stats();
    run_workload(app.name, &mut p.app.runtime, &p.indices);
    let after = p.app.runtime.exec_stats();

    let trans = after.trans_retired - before.trans_retired;
    let interp = after.interp_retired - before.interp_retired;
    assert!(after.blocks_entered > before.blocks_entered, "no superblock entered");
    assert!(after.blocks_translated > before.blocks_translated, "nothing translated");
    assert!(
        trans >= (trans + interp) * 9 / 10,
        "restored hot code should retire ≥90% translated: trans={trans} interp={interp}"
    );
}

#[test]
fn sanitized_page_faults_as_illegal_until_restored() {
    let app = jit_patch_app();
    let mut p = launch_protected(&app, DataPlacement::Remote, 0xFA58).unwrap();
    // Before restoration the function bodies are zeroed; executing them
    // must fault as IllegalInstruction (the cache stores zeroed slots as
    // Illegal, matching the uncached fetch exactly).
    for _ in 0..2 {
        match p.app.runtime.ecall(p.indices["victim"], &[], 0).unwrap_err() {
            EnclaveError::Fault(VmFault::IllegalInstruction { .. }) => {}
            other => panic!("sanitized code must fault illegal, got {other:?}"),
        }
    }
    // Restore rewrites the same pages; the very next ecall must execute.
    p.restore().unwrap();
    assert_eq!(p.app.runtime.ecall(p.indices["victim"], &[], 0).unwrap().status, 7);
}

/// The whitelisted runtime sits in front of a protected build's app code,
/// so the protected build lays every hot loop out at a different page
/// offset than the plain build does. Superblocks ignore page boundaries,
/// so the layout must not change how the work is cut into blocks: on the
/// same warm workload each protected build enters at most 1.10x the
/// superblocks its plain build enters.
#[test]
fn protected_layout_enters_no_more_superblocks_than_plain() {
    use sgxelide::apps::harness::launch_plain;
    use sgxelide::apps::{aes_app, des_app, json_app, merkle_app, run_workload, sha1_app, xtea};
    use sgxelide::enclave::EnclaveRuntime;
    use std::collections::HashMap;

    // Blocks entered by one warm run (a first run translates).
    fn warm_blocks(name: &str, rt: &mut EnclaveRuntime, indices: &HashMap<String, u64>) -> u64 {
        run_workload(name, rt, indices);
        let before = rt.exec_stats().blocks_entered;
        run_workload(name, rt, indices);
        rt.exec_stats().blocks_entered - before
    }

    let apps = [
        aes_app::app(),
        des_app::app(),
        sha1_app::app(),
        xtea::app(),
        json_app::app(),
        merkle_app::app(),
    ];
    for app in apps {
        let mut plain = launch_plain(&app, 42).unwrap();
        let mut prot = launch_protected(&app, DataPlacement::Remote, 42).unwrap();
        prot.restore().unwrap();
        let p = warm_blocks(app.name, &mut plain.runtime, &plain.indices);
        let e = warm_blocks(app.name, &mut prot.app.runtime, &prot.indices);
        assert!(p > 0, "{}: the plain build entered no superblock", app.name);
        assert!(
            e * 100 <= p * 110,
            "{}: protected build entered {e} superblocks against plain {p} ({:.2}x)",
            app.name,
            e as f64 / p as f64
        );
    }
}
