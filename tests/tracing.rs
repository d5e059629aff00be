//! End-to-end tracing integration: run the Metadata Server colocate
//! scenario (§3.3) with tracing enabled, then interrogate the trace.
//!
//! Covers the decision audit (`explain` reconstructs the complete
//! rule → plan → admission → migration chain for a migrated actor),
//! trace determinism (same seed ⇒ byte-identical JSONL), and exporter
//! validity (every JSONL line parses as one JSON object, the Chrome trace
//! parses as JSON, and both land under `target/plasma-results/`).

use plasma::prelude::*;
use plasma_trace::json;

struct Folder {
    files: Vec<ActorId>,
    next_responder: usize,
}

impl ActorLogic for Folder {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(0.001);
        if self.files.is_empty() {
            ctx.reply(256);
            return;
        }
        let responder = self.files[self.next_responder % self.files.len()];
        self.next_responder += 1;
        ctx.send(responder, "read", 128);
        for &f in &self.files {
            if f != responder {
                ctx.send_detached(f, "read", 128);
            }
        }
    }
}

struct File;

impl ActorLogic for File {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        ctx.work(0.0016);
        if msg.corr.is_some() {
            ctx.reply(512);
        }
    }
}

struct MetadataClient {
    folders: Vec<ActorId>,
}

impl MetadataClient {
    fn fire(&mut self, ctx: &mut ClientCtx<'_>) {
        let target = if ctx.rng().chance(0.5) {
            self.folders[0]
        } else {
            let rest = self.folders.len() - 1;
            self.folders[1 + ctx.rng().index(rest)]
        };
        ctx.request(target, "open", 96);
    }
}

impl ClientLogic for MetadataClient {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        self.fire(ctx);
    }
    fn on_reply(
        &mut self,
        ctx: &mut ClientCtx<'_>,
        _request: u64,
        _latency: SimDuration,
        _payload: Option<Payload>,
    ) {
        ctx.set_timer(SimDuration::from_millis(60), 0);
    }
    fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, _token: u64) {
        self.fire(ctx);
    }
}

fn schema() -> ActorSchema {
    let mut schema = ActorSchema::new();
    schema.actor_type("Folder").prop("files").func("open");
    schema.actor_type("File").func("read");
    schema
}

const POLICY: &str = "server.cpu.perc > 80 and \
     client.call(Folder(fo).open).perc > 40 and \
     File(fi) in ref(fo.files) => \
     reserve(fo, cpu); colocate(fo, fi);";

/// Builds the §5.3 hot-folder setup: every actor starts on `s0`, a second
/// server sits idle, and half of all requests hit folder 0.
fn build(seed: u64, trace: TraceConfig) -> (Plasma, Vec<ActorId>, ServerId) {
    let period = SimDuration::from_secs(80);
    let mut app = Plasma::builder()
        .runtime_config(RuntimeConfig {
            seed,
            elasticity_period: period,
            min_residency: period,
            ..RuntimeConfig::default()
        })
        .policy(POLICY, &schema())
        .tracing(trace)
        .build()
        .unwrap();
    let rt = app.runtime_mut();
    let s0 = rt.add_server(InstanceType::m1_small());
    let _s1 = rt.add_server(InstanceType::m1_small());
    let mut folders = Vec::new();
    for _ in 0..4 {
        let files: Vec<ActorId> = (0..8)
            .map(|_| rt.spawn_actor("File", Box::new(File), 256 << 10, s0))
            .collect();
        let folder = rt.spawn_actor(
            "Folder",
            Box::new(Folder {
                files: files.clone(),
                next_responder: 0,
            }),
            128 << 10,
            s0,
        );
        for f in files {
            rt.actor_add_ref(folder, "files", f);
        }
        folders.push(folder);
    }
    for _ in 0..16 {
        rt.add_client(Box::new(MetadataClient {
            folders: folders.clone(),
        }));
    }
    (app, folders, s0)
}

fn kind_name(e: &TraceEvent) -> &'static str {
    e.kind.name()
}

#[test]
fn explain_reconstructs_full_decision_chain() {
    // Messages are the high-volume family; excluding them keeps the whole
    // decision history inside the ring buffer for the entire run.
    let (mut app, folders, s0) = build(11, TraceConfig::default().without(Category::Message));
    app.run_until(SimTime::from_secs(200));

    let hot = folders[0];
    let rt = app.runtime();
    let hot_server = rt.actor_server(hot);
    assert_ne!(hot_server, s0, "hot folder moved off the loaded server");

    // The folder's audit chain: the GEM's reserve rule fired, the plan
    // proposed the move, the destination admitted it, and the runtime
    // migrated the actor.
    let chain = app.tracer().explain(hot.0, app.runtime().now());
    let kinds: Vec<&str> = chain.iter().map(kind_name).collect();
    assert_eq!(
        kinds,
        vec![
            "RuleEvaluated",
            "RuleFired",
            "PlanProposed",
            "QuerySent",
            "QueryReply",
            "MigrationStart",
            "MigrationComplete",
        ],
        "full causal chain reconstructed"
    );
    for pair in chain.windows(2) {
        assert!(pair[0].at <= pair[1].at, "chain is causally ordered");
        assert_eq!(pair[1].parent, Some(pair[0].id), "parent links chain up");
    }
    match &chain[4].kind {
        TraceEventKind::QueryReply { admitted, .. } => assert!(*admitted, "move was admitted"),
        other => panic!("expected QueryReply, got {other:?}"),
    }
    match &chain[6].kind {
        TraceEventKind::MigrationComplete { actor, dst, .. } => {
            assert_eq!(*actor, hot.0);
            assert_eq!(*dst, hot_server.0);
        }
        other => panic!("expected MigrationComplete, got {other:?}"),
    }

    // A colocated file's chain roots at the LEM's colocate rule instead.
    let file = rt.actor_refs(hot, "files")[0];
    assert_eq!(
        rt.actor_server(file),
        hot_server,
        "file followed the folder"
    );
    let file_chain = app.tracer().explain(file.0, app.runtime().now());
    assert_eq!(
        file_chain.last().map(kind_name),
        Some("MigrationComplete"),
        "file migration traced"
    );
    assert!(
        file_chain
            .iter()
            .any(|e| e.component == Component::Lem && kind_name(e) == "RuleFired"),
        "file move explained by a LEM interaction rule"
    );

    // The human-readable rendering has one line per hop.
    let text = render_explanation(&chain);
    assert_eq!(text.lines().count(), chain.len());
}

#[test]
fn traces_are_byte_identical_across_identical_runs() {
    // Stop shortly after the first elasticity round: with every category on
    // (messages included) the default ring still holds the migration events.
    let run = || {
        let (mut app, _, _) = build(11, TraceConfig::default());
        app.run_until(SimTime::from_secs(90));
        app.tracer().jsonl()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert!(
        a.contains("\"kind\":\"MigrationComplete\""),
        "trace captured the elasticity round"
    );
    assert_eq!(a, b, "same seed produces a byte-identical trace");
    // Every category is on, so this covers the whole event vocabulary.
    for line in a.lines() {
        let event = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let first_key = event.as_object().map(|members| members[0].0.as_str());
        assert_eq!(
            first_key,
            Some("id"),
            "each line is one event object: {line}"
        );
    }
}

#[test]
fn chrome_trace_is_valid_json_and_lands_in_results_dir() {
    let (mut app, _, _) = build(11, TraceConfig::default().without(Category::Message));
    app.run_until(SimTime::from_secs(120));
    let chrome = app.tracer().chrome_trace();

    let value = json::parse(&chrome).expect("chrome trace parses as JSON");
    let events = value
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .expect("traceEvents array present");
    assert!(events.len() > 4, "more than the process-name metadata");
    // Every entry carries the mandatory trace_event fields.
    for e in events {
        assert!(e.as_object().is_some(), "event is an object");
        assert!(e.get("ph").is_some());
        assert!(e.get("pid").is_some());
        assert!(e.get("name").is_some());
    }

    let dir = results_dir();
    let chrome_path = write_under(&dir, "tracing-test.chrome.json", &chrome).unwrap();
    let jsonl_path = write_under(&dir, "tracing-test.jsonl", &app.tracer().jsonl()).unwrap();
    assert!(chrome_path.exists());
    assert!(jsonl_path.exists());
}
