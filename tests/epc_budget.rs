//! The EPC budget's LRU bookkeeping on the one guest data path: pages are
//! stamped on every load, store and execute entry exactly while a budget is
//! armed, a budget that never evicts leaves execution bit-identical to
//! running without one, and an oversubscribed budget pages transparently —
//! on both execution engines.

use sgxelide::apps::harness::{launch_plain, launch_protected, App};
use sgxelide::apps::{aes_app, des_app, json_app, merkle_app, run_workload, sha1_app, xtea};
use sgxelide::core::sanitizer::DataPlacement;
use sgxelide::crypto::rng::SeededRandom;
use sgxelide::enclave::runtime::{UNTRUSTED_BASE, UNTRUSTED_SIZE};
use sgxelide::enclave::EnclaveRuntime;
use sgxelide::sgx::budget::EpcBudget;
use sgxelide::vm::interp::{Engine, ExecStats};
use std::collections::HashMap;

const ENGINES: [Engine; 2] = [Engine::Interp, Engine::Superblock];

/// `touch` walks its input, one little-endian `u64` per access: the low
/// byte picks a page of `table`, bit 8 makes the access a store (of the
/// entry itself) instead of a load. `table_addr` returns `table`.
fn toucher() -> App {
    App {
        name: "toucher",
        asm: "
.section text
.global table_addr
.func table_addr
    la   r0, table
    ret
.endfunc
.global touch
.func touch
    la   r6, table
    movi r7, 0
    movi r11, 0
.l:
    bgeu r7, r3, .done
    add  r8, r2, r7
    ld64 r8, [r8]
    andi r9, r8, 255
    shli r9, r9, 12
    add  r9, r6, r9
    shrui r10, r8, 8
    beq  r10, r11, .load
    st64 r8, [r9]
    jmp  .next
.load:
    ld64 r12, [r9]
.next:
    addi r7, r7, 8
    jmp  .l
.done:
    movi r0, 0
    ret
.endfunc
.section data
table: .zero 16384
"
        .to_string(),
        ecalls: vec!["table_addr", "touch"],
    }
}

const TABLE_ADDR: u64 = 0;
const TOUCH: u64 = 1;

/// The `touch` entry storing to page `i` of `table`.
const fn st(i: u64) -> u64 {
    i | 1 << 8
}

fn touch(rt: &mut EnclaveRuntime, accesses: &[u64]) {
    let input: Vec<u8> = accesses.iter().flat_map(|a| a.to_le_bytes()).collect();
    assert_eq!(rt.ecall(TOUCH, &input, 0).expect("touch runs").status, 0);
}

/// Every resident page's access stamp, in page order.
fn stamps(rt: &EnclaveRuntime) -> Vec<(u64, u64)> {
    let enclave = rt.enclave();
    enclave
        .resident_pages()
        .into_iter()
        .map(|off| (off, enclave.access_stamp(enclave.base() + off).expect("resident")))
        .collect()
}

/// A 1x budget: the cap equals the resident regular pages, so it never
/// evicts.
fn one_x_budget(rt: &EnclaveRuntime, seed: u64) -> EpcBudget {
    EpcBudget::new(rt.enclave().resident_reg_pages(), &mut SeededRandom::new(seed))
}

#[test]
fn armed_budget_stamps_every_data_access_and_only_while_armed() {
    for engine in ENGINES {
        let mut launched = launch_plain(&toucher(), 0x1A0).expect("launch");
        let rt = &mut launched.runtime;
        rt.set_engine(engine);
        let table = rt.ecall(TABLE_ADDR, &[], 0).expect("table_addr").status;
        let pages: Vec<u64> = (0..4).map(|i| table + i * 4096).collect();

        // Before arming: loads, stores and execute entries leave every
        // stamp where EADD put it.
        let before = stamps(rt);
        touch(rt, &[0, st(1), 2, st(3)]);
        assert!(!rt.enclave().stamps_accesses());
        assert_eq!(stamps(rt), before, "unarmed accesses moved a stamp under {engine:?}");

        // Armed: each access makes its page the most recently used, so
        // the data pages order exactly as last touched, and the page
        // touched last is never the next eviction victim.
        let evicted = rt.set_epc_budget(one_x_budget(rt, 1)).expect("arm");
        assert_eq!(evicted, 0);
        assert!(rt.enclave().stamps_accesses());
        for (order, last) in
            [(vec![0, 1, 2, 3], 3), (vec![st(3), 2, 1, st(0)], 0), (vec![st(2)], 2)]
        {
            touch(rt, &order);
            let enclave = rt.enclave();
            let stamp = |i: u64| enclave.access_stamp(pages[i as usize]).expect("resident");
            for pair in order.windows(2) {
                assert!(
                    stamp(pair[0] & 0xFF) < stamp(pair[1] & 0xFF),
                    "access order {order:?} not reflected under {engine:?}"
                );
            }
            for other in (0..4).filter(|&i| i != last) {
                assert!(stamp(last) > stamp(other), "page {last} not newest under {engine:?}");
            }
            let victim = enclave.coldest_resident_page().map(|off| enclave.base() + off);
            assert_ne!(victim, Some(pages[last as usize]), "newest page is the victim");
        }

        // Disarmed: stamping stops again.
        let budget = rt.take_epc_budget().expect("armed");
        assert_eq!(budget.stats().evictions, 0);
        assert!(!rt.enclave().stamps_accesses());
        let before = stamps(rt);
        touch(rt, &[st(0), 1, st(2), 3]);
        assert_eq!(stamps(rt), before, "disarmed accesses moved a stamp under {engine:?}");
    }
}

/// Everything a run leaves behind that a 1x budget must not change.
#[derive(PartialEq)]
struct Outcome {
    ops: u64,
    retired: u64,
    stats: ExecStats,
    dram: Vec<(u64, Vec<u8>)>,
    marshal: Vec<u8>,
}

fn run_both_engines(
    rt: &mut EnclaveRuntime,
    name: &str,
    idx: &HashMap<String, u64>,
) -> Vec<Outcome> {
    ENGINES
        .iter()
        .map(|&engine| {
            rt.set_engine(engine);
            // `run_workload` checks every guest output against the host
            // reference, so equal outcomes also mean equal outputs.
            let ops = run_workload(name, rt, idx);
            Outcome {
                ops,
                retired: rt.retired_total(),
                stats: rt.exec_stats(),
                dram: rt.enclave().dram_image(),
                marshal: rt.untrusted().read(UNTRUSTED_BASE, UNTRUSTED_SIZE).expect("marshal"),
            }
        })
        .collect()
}

#[test]
fn a_budget_that_never_evicts_changes_nothing() {
    let apps = [
        aes_app::app(),
        des_app::app(),
        sha1_app::app(),
        xtea::app(),
        json_app::app(),
        merkle_app::app(),
    ];
    for app in &apps {
        // The protected arms warm-start from one sealed secret: a cold
        // restore draws server-side randomness into enclave memory.
        let mut prot = launch_protected(app, DataPlacement::Remote, 0xB0D6).expect("protect");
        prot.restore().expect("cold restore");
        let mut outcomes = Vec::new();
        for armed in [false, true] {
            let mut plain = launch_plain(app, 0xB0D6).expect("launch plain");
            prot.warm_relaunch(0x3A91).expect("warm start");
            prot.restore().expect("warm restore");
            let runs =
                [(&mut plain.runtime, &plain.indices), (&mut prot.app.runtime, &prot.indices)];
            for (rt, idx) in runs {
                if armed {
                    assert_eq!(rt.set_epc_budget(one_x_budget(rt, 7)).expect("arm"), 0);
                }
                outcomes.push(run_both_engines(rt, app.name, idx));
                if armed {
                    let stats = rt.epc_budget().expect("armed").stats();
                    assert_eq!((stats.evictions, stats.reloads), (0, 0), "{}: paged", app.name);
                }
            }
        }
        let (unarmed, armed) = outcomes.split_at(2);
        assert!(unarmed == armed, "{}: a 1x budget changed the run", app.name);
    }
}

/// Oversubscribed runs: each app's workload under a cap of a quarter of
/// its resident pages (4x, where the working set still fits and only the
/// pages it leaves cold are evicted) and under a 3-page cap (where the
/// working set no longer fits and code and data pages evict each other).
/// The last field bounds the interpreter's reloads under the 3-page cap: it
/// stamps its code pages only through its instruction fetches, and a fetch
/// that did not stamp would leave the executing page the LRU victim (AES,
/// DES and Sha1 then read 6,262, 6,623 and 106 reloads). The interpreter
/// read 3,374, 4,175 and 77; the superblock engine 4,719, 926 and 77.
const OVERSUBSCRIBED: [(fn() -> App, u64); 3] =
    [(aes_app::app, 4_000), (des_app::app, 5_000), (sha1_app::app, 90)];

#[test]
fn oversubscribed_budget_pages_transparently_on_both_engines() {
    for (app, interp_reload_bound) in OVERSUBSCRIBED {
        let app = app();
        for engine in ENGINES {
            for tight in [false, true] {
                let mut launched = launch_plain(&app, 0x4C0).expect("launch");
                let rt = &mut launched.runtime;
                rt.set_engine(engine);
                let cap = if tight { 3 } else { rt.enclave().resident_reg_pages() / 4 };
                rt.set_epc_budget(EpcBudget::new(cap, &mut SeededRandom::new(11))).expect("arm");
                // `run_workload` checks every guest output against the host
                // reference.
                run_workload(app.name, rt, &launched.indices);
                let stats = rt.epc_budget().expect("armed").stats();
                let at = format!("{} under {engine:?} at a {cap}-page cap", app.name);
                assert!(stats.evictions > 0, "{at}: nothing evicted");
                assert_eq!(stats.reload_failures, 0, "{at}: a reload failed");
                if engine == Engine::Interp && tight {
                    assert!(
                        stats.reloads <= interp_reload_bound,
                        "{at}: {} reloads, bound {interp_reload_bound}",
                        stats.reloads
                    );
                }
            }
        }
    }
}
