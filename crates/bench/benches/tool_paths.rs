//! Secondary tool paths: canary imprint/verify, evidence-store
//! operations, and report rendering.

use criterion::{criterion_group, criterion_main, Criterion};
use csod_core::{CanaryUnit, CtxId, DetectionMethod, EvidenceStore, ObjectLayout, OverflowReport};
use csod_ctx::{CallingContext, FrameTable};
use sim_machine::{AccessKind, Machine, ThreadId, VirtAddr, VirtInstant};

fn bench_canary(c: &mut Criterion) {
    let mut machine = Machine::new();
    let base = VirtAddr::new(0x10_0000);
    machine.map_region(base, 1 << 16, "heap").unwrap();
    let unit = CanaryUnit::new(0xDEAD_BEEF_1234_5678);
    let layout = ObjectLayout::new(true, 64);

    c.bench_function("canary_imprint_64b_object", |b| {
        b.iter(|| unit.imprint(&mut machine, layout, base, base, CtxId::from_index(3)).unwrap());
    });
    unit.imprint(&mut machine, layout, base, base, CtxId::from_index(3)).unwrap();
    let canary_addr = layout.canary_addr(layout.user_ptr(base));
    c.bench_function("canary_check", |b| {
        b.iter(|| unit.check(&machine, canary_addr).unwrap());
    });
    c.bench_function("canary_read_header", |b| {
        b.iter(|| unit.read_header(&machine, layout.user_ptr(base)).unwrap());
    });
}

fn bench_evidence(c: &mut Criterion) {
    let frames = FrameTable::new();
    let contexts: Vec<CallingContext> = (0..200)
        .map(|i| {
            CallingContext::from_locations(
                &frames,
                [
                    format!("alloc/site_{i}.c:10"),
                    format!("logic/layer{}.c:20", i % 7),
                    "main.c:1".to_string(),
                ]
                .iter()
                .map(String::as_str),
            )
        })
        .collect();
    let mut store = EvidenceStore::new();
    for ctx in &contexts {
        store.record(ctx, &frames);
    }

    c.bench_function("evidence_contains_hit", |b| {
        b.iter(|| store.contains(&contexts[100], &frames));
    });
    let path = std::env::temp_dir().join(format!("csod-bench-evidence-{}.txt", std::process::id()));
    c.bench_function("evidence_save_200", |b| {
        b.iter(|| store.save(&path).unwrap());
    });
    c.bench_function("evidence_load_200", |b| {
        b.iter(|| EvidenceStore::load(&path).unwrap());
    });
    let _ = std::fs::remove_file(&path);
}

fn bench_report(c: &mut Criterion) {
    let frames = FrameTable::new();
    let report = OverflowReport {
        kind: AccessKind::Read,
        method: DetectionMethod::Watchpoint,
        thread: ThreadId::MAIN,
        object_start: VirtAddr::new(0x1000),
        boundary_addr: VirtAddr::new(0x1040),
        overflow_site: Some(CallingContext::from_locations(
            &frames,
            [
                "GLIBC/memcpy-sse2-unaligned.S:81",
                "OPENSSL/ssl/t1_lib.c:2588",
                "OPENSSL/ssl/s3_pkt.c:1095",
                "NGINX/os/unix/ngx_process_cycle.c:138",
                "NGINX/core/nginx.c:415",
            ],
        )),
        alloc_context: CallingContext::from_locations(
            &frames,
            [
                "OPENSSL/crypto/mem.c:312",
                "OPENSSL/crypto/bn/bn_ctx.c:217",
                "NGINX/http/ngx_http_request.c:577",
            ],
        ),
        ctx_id: CtxId::from_index(0),
        at: VirtInstant::BOOT,
    };
    c.bench_function("report_render_figure6", |b| {
        b.iter(|| report.render(&frames));
    });
}

criterion_group!(benches, bench_canary, bench_evidence, bench_report);
criterion_main!(benches);
