//! The Metadata Server (§3.3, §5.3, Fig. 5).
//!
//! Folders and files are actors; opening a folder touches every file in it
//! (one designated file completes the client's request, the rest are
//! touched in the background). One folder is in much higher demand than
//! the rest, overloading its `m1.small` host. Three elasticity setups are
//! compared:
//!
//! - **res-col-rule** — the paper's rule: reserve the hot folder a server
//!   and colocate its files with it.
//! - **def-rule** — migrate the heaviest actor to an idle server, without
//!   knowing folders drag their files along (the gains are nullified by
//!   the folder-to-file remote hops, as in the paper).
//! - **no-rule** — no elasticity at all.

use plasma::prelude::*;
use plasma_sim::metrics::BucketedSeries;
use plasma_sim::SimTime;

/// The schema the Fig. 5 policy compiles against.
pub fn schema() -> ActorSchema {
    let mut schema = ActorSchema::new();
    schema.actor_type("Folder").prop("files").func("open");
    schema.actor_type("File").func("read");
    schema
}

/// The paper's Metadata Server policy (§3.3), verbatim.
pub fn policy() -> &'static str {
    "server.cpu.perc > 80 and \
     client.call(Folder(fo).open).perc > 40 and \
     File(fi) in ref(fo.files) => \
     reserve(fo, cpu); colocate(fo, fi);"
}

/// Which elasticity management the run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// The paper's reserve + colocate rule.
    ResColRule,
    /// Heaviest-actor-to-idle-server default rule.
    DefRule,
    /// No elasticity management.
    NoRule,
}

/// Metadata Server experiment configuration (§5.3 defaults).
#[derive(Clone, Debug)]
pub struct MetadataConfig {
    /// Number of folders.
    pub folders: usize,
    /// Files per folder.
    pub files_per_folder: usize,
    /// Number of clients.
    pub clients: usize,
    /// Fraction of requests hitting folder 0.
    pub hot_share: f64,
    /// Elasticity period.
    pub period: SimDuration,
    /// Total run length.
    pub run_for: SimDuration,
    /// Elasticity mode.
    pub mode: Mode,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MetadataConfig {
    fn default() -> Self {
        MetadataConfig {
            folders: 4,
            files_per_folder: 8,
            clients: 16,
            hot_share: 0.5,
            period: SimDuration::from_secs(80),
            run_for: SimDuration::from_secs(200),
            mode: Mode::ResColRule,
            seed: 11,
        }
    }
}

/// Results of one Metadata Server run.
#[derive(Debug)]
pub struct MetadataReport {
    /// Mean latency per second of the run (Fig. 5's series).
    pub latency_series: BucketedSeries,
    /// Mean latency before the first elasticity period.
    pub before_ms: f64,
    /// Mean latency over the final quarter of the run.
    pub after_ms: f64,
    /// Migrations performed.
    pub migrations: usize,
    /// FNV-1a digest of the run's elasticity decision sequence.
    pub decision_digest: u64,
}

struct Folder {
    files: Vec<ActorId>,
    next_responder: usize,
    open_work: f64,
}

impl ActorLogic for Folder {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(self.open_work);
        if self.files.is_empty() {
            ctx.reply(256);
            return;
        }
        // One file completes the request; the rest are accessed in the
        // background (metadata scans touch the whole directory).
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

struct File {
    read_work: f64,
}

impl ActorLogic for File {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        ctx.work(self.read_work);
        if msg.corr.is_some() {
            ctx.reply(512);
        }
    }
}

/// A client that picks a folder per request: hot folder with probability
/// `hot_share`, the rest uniformly.
struct MetadataClient {
    folders: Vec<ActorId>,
    hot_share: f64,
    think: SimDuration,
}

impl MetadataClient {
    fn fire(&mut self, ctx: &mut ClientCtx<'_>) {
        let target = if ctx.rng().chance(self.hot_share) || self.folders.len() == 1 {
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
        ctx.set_timer(self.think, 0);
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, _token: u64) {
        self.fire(ctx);
    }
}

/// Runs the Metadata Server experiment.
pub fn run(cfg: &MetadataConfig) -> MetadataReport {
    let runtime_cfg = RuntimeConfig {
        seed: cfg.seed,
        elasticity_period: cfg.period,
        min_residency: cfg.period,
        ..RuntimeConfig::default()
    };
    let mut app = match cfg.mode {
        Mode::ResColRule => Plasma::builder()
            .runtime_config(runtime_cfg)
            .policy(policy(), &schema())
            .build()
            .expect("metadata policy compiles"),
        Mode::DefRule => Plasma::builder()
            .runtime_config(runtime_cfg)
            .controller(Box::new(HeavyToIdle::new(0.8)))
            .build()
            .expect("no policy to compile"),
        Mode::NoRule => Plasma::builder()
            .runtime_config(runtime_cfg)
            .build()
            .expect("no policy to compile"),
    };
    let rt = app.runtime_mut();
    let main_server = rt.add_server(InstanceType::m1_small());
    // The elastic setups get one extra (initially idle) server, as in §5.3.
    if cfg.mode != Mode::NoRule {
        rt.add_server(InstanceType::m1_small());
    }
    let mut folders = Vec::with_capacity(cfg.folders);
    for _ in 0..cfg.folders {
        let files: Vec<ActorId> = (0..cfg.files_per_folder)
            .map(|_| {
                rt.spawn_actor(
                    "File",
                    Box::new(File { read_work: 0.0016 }),
                    256 << 10,
                    main_server,
                )
            })
            .collect();
        let folder = rt.spawn_actor(
            "Folder",
            Box::new(Folder {
                files: files.clone(),
                next_responder: 0,
                open_work: 0.001,
            }),
            128 << 10,
            main_server,
        );
        for f in files {
            rt.actor_add_ref(folder, "files", f);
        }
        folders.push(folder);
    }
    for _ in 0..cfg.clients {
        rt.add_client(Box::new(MetadataClient {
            folders: folders.clone(),
            hot_share: cfg.hot_share,
            think: SimDuration::from_millis(60),
        }));
    }
    let end = SimTime::ZERO + cfg.run_for;
    app.run_until(end);
    let report = app.report();
    let buckets = report.latency_series.buckets();
    let first_period_end = SimTime::ZERO + cfg.period;
    let tail_start = SimTime::ZERO + cfg.run_for.mul_f64(0.75);
    let mean_over = |from: SimTime, to: SimTime| {
        let vals: Vec<f64> = buckets
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    MetadataReport {
        before_ms: mean_over(SimTime::ZERO, first_period_end),
        after_ms: mean_over(tail_start, end),
        migrations: report.migrations.len(),
        decision_digest: report.decision_digest(),
        latency_series: report.latency_series.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mode: Mode) -> MetadataReport {
        run(&MetadataConfig {
            mode,
            ..MetadataConfig::default()
        })
    }

    #[test]
    fn res_col_rule_cuts_latency_substantially() {
        let elastic = quick(Mode::ResColRule);
        let vanilla = quick(Mode::NoRule);
        assert!(elastic.migrations >= 1, "rule fired");
        let gain = 1.0 - elastic.after_ms / vanilla.after_ms;
        assert!(
            gain > 0.25,
            "expected ~40% latency reduction, got {:.0}% ({} vs {})",
            gain * 100.0,
            elastic.after_ms,
            vanilla.after_ms
        );
    }

    #[test]
    fn def_rule_shows_no_real_benefit() {
        let def = quick(Mode::DefRule);
        let vanilla = quick(Mode::NoRule);
        // The default rule migrates actors...
        assert!(def.migrations >= 1);
        // ...but remote folder-to-file traffic eats the gains (Fig. 5).
        let gain = 1.0 - def.after_ms / vanilla.after_ms;
        assert!(
            gain < 0.15,
            "def-rule should not approach the informed rule, got {:.0}%",
            gain * 100.0
        );
    }

    #[test]
    fn hot_folder_ends_up_reserved_with_its_files() {
        let cfg = MetadataConfig::default();
        let runtime_cfg = RuntimeConfig {
            seed: cfg.seed,
            elasticity_period: cfg.period,
            min_residency: cfg.period,
            ..RuntimeConfig::default()
        };
        let mut app = Plasma::builder()
            .runtime_config(runtime_cfg)
            .policy(policy(), &schema())
            .build()
            .unwrap();
        let rt = app.runtime_mut();
        let s0 = rt.add_server(InstanceType::m1_small());
        let _s1 = rt.add_server(InstanceType::m1_small());
        let mut folders = Vec::new();
        for _ in 0..cfg.folders {
            let files: Vec<ActorId> = (0..cfg.files_per_folder)
                .map(|_| {
                    rt.spawn_actor("File", Box::new(File { read_work: 0.0016 }), 256 << 10, s0)
                })
                .collect();
            let folder = rt.spawn_actor(
                "Folder",
                Box::new(Folder {
                    files: files.clone(),
                    next_responder: 0,
                    open_work: 0.001,
                }),
                128 << 10,
                s0,
            );
            for f in files {
                rt.actor_add_ref(folder, "files", f);
            }
            folders.push(folder);
        }
        for _ in 0..cfg.clients {
            rt.add_client(Box::new(MetadataClient {
                folders: folders.clone(),
                hot_share: cfg.hot_share,
                think: SimDuration::from_millis(60),
            }));
        }
        app.run_until(SimTime::from_secs(200));
        let rt = app.runtime();
        let hot = folders[0];
        let hot_server = rt.actor_server(hot);
        assert_ne!(hot_server, s0, "hot folder moved off the loaded server");
        for f in rt.actor_refs(hot, "files") {
            assert_eq!(rt.actor_server(f), hot_server, "files follow the folder");
        }
    }
}
