//! The rule catalogue and the token-pattern matchers.
//!
//! Every rule protects an invariant another part of the workspace proved at
//! some point and must not silently lose (see `docs/analysis-rules.md` for
//! the full catalogue with rationale). Rules are scoped per crate and per
//! file: a determinism rule has no business in the benchmark harness, and
//! panic-freedom is a property of the serving request path specifically.
//!
//! Matchers operate on the comment-free token stream produced by
//! [`crate::lexer`], with `#[cfg(test)]` items and `tests/`-tree files
//! already removed for rules that do not opt into test code.

use crate::lexer::Tok;

/// Which crates a rule applies to.
#[derive(Debug, Clone, Copy)]
pub enum CrateScope {
    /// Every crate in the workspace.
    All,
    /// Only the named crates.
    Only(&'static [&'static str]),
    /// Every crate except the named ones.
    Except(&'static [&'static str]),
}

/// Which files (crate-relative paths) a rule applies to within its crates.
#[derive(Debug, Clone, Copy)]
pub enum FileScope {
    /// Every file of an in-scope crate.
    All,
    /// Only the named `(crate, path)` pairs.
    Only(&'static [(&'static str, &'static str)]),
    /// Everything except the named `(crate, path)` pairs (documented
    /// exemptions such as config entry points).
    Except(&'static [(&'static str, &'static str)]),
}

/// A static-analysis rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id used in findings and `tsg-allow(...)` directives.
    pub id: &'static str,
    /// One-line description for `--list-rules` and reports.
    pub summary: &'static str,
    /// The invariant (and the PR that established it) the rule protects.
    pub protects: &'static str,
    /// Crates the rule runs on.
    pub crates: CrateScope,
    /// Files the rule runs on within those crates.
    pub files: FileScope,
    /// Whether the rule also inspects test code (`#[cfg(test)]` modules and
    /// `tests/`/`benches/`/`examples/` trees).
    pub include_tests: bool,
}

/// Crates whose outputs must be bit-reproducible (the determinism harness's
/// domain: extraction, graphs, models, datasets, baselines and the
/// statistics the eval crate derives from them).
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "tsg_ts",
    "tsg_graph",
    "tsg_core",
    "tsg_ml",
    "tsg_datasets",
    "tsg_baselines",
    "tsg_eval",
];

/// The panic-freedom domain: every module a byte from the network flows
/// through between `accept()` and the response write, plus the crash-safety
/// machinery behind it — the snapshot store and the fault-injection seams.
/// A corrupt snapshot or an injected fault must degrade to an error
/// response or a refit, never abort the process.
pub const REQUEST_PATH_FILES: &[(&str, &str)] = &[
    ("tsg_serve", "src/http.rs"),
    ("tsg_serve", "src/json.rs"),
    ("tsg_serve", "src/server.rs"),
    ("tsg_serve", "src/batcher.rs"),
    ("tsg_serve", "src/registry.rs"),
    ("tsg_serve", "src/epoll.rs"),
    ("tsg_serve", "src/event_loop.rs"),
    ("tsg_serve", "src/snapshot.rs"),
    ("tsg_faults", "src/lib.rs"),
    ("tsg_trace", "src/lib.rs"),
];

/// Files whose file I/O must flow through the `tsg_faults::fsio` seam so
/// deterministic fault schedules can reach every open/write/sync/rename of
/// the storage paths (the dataset cache and the model snapshot store).
pub const FAULT_SEAM_FILES: &[(&str, &str)] = &[
    ("tsg_datasets", "src/cache.rs"),
    ("tsg_serve", "src/snapshot.rs"),
];

/// The only tsg_serve files allowed to create threads: the ops worker
/// (`server.rs`), the shared batch dispatcher (`batcher.rs`) and the
/// load generator's client fan-out. The event loop and the epoll shim are
/// single-threaded by design and stay under thread-discipline.
pub const SERVE_THREAD_SPAWNERS: &[(&str, &str)] = &[
    ("tsg_serve", "src/server.rs"),
    ("tsg_serve", "src/batcher.rs"),
    ("tsg_serve", "src/bin/serve_loadgen.rs"),
];

/// The documented process-environment entry points; all other code must
/// receive configuration through arguments.
pub const ENV_ENTRY_POINTS: &[(&str, &str)] = &[
    ("tsg_parallel", "src/lib.rs"),
    ("tsg_datasets", "src/source.rs"),
    ("tsg_datasets", "src/cache.rs"),
    ("tsg_faults", "src/lib.rs"),
    ("tsg_trace", "src/log.rs"),
];

/// Files outside the serving/tracing layer with a documented, reviewed need
/// to read the wall clock: the eval crate's explicit timing harness and the
/// benchmark binary's wall-clock report. Everything else must stay
/// clock-free and surface timings through the `tsg_core::TraceSink` seam.
pub const CLOCK_EXEMPT_FILES: &[(&str, &str)] = &[
    ("tsg_eval", "src/timing.rs"),
    ("tsg_bench", "src/bin/fig6_fig7_classifiers.rs"),
];

/// Id of the meta-rule that reports malformed/unknown suppressions.
pub const SUPPRESSION_RULE: &str = "suppression";

/// The workspace rule catalogue.
pub const RULES: &[Rule] = &[
    Rule {
        id: "det-collections",
        summary: "no HashMap/HashSet in deterministic crates (iteration order is random)",
        protects: "parallel == serial bit-identity (PR 2 determinism harness)",
        crates: CrateScope::Only(DETERMINISTIC_CRATES),
        files: FileScope::All,
        include_tests: false,
    },
    Rule {
        id: "det-time",
        summary: "no Instant/SystemTime in deterministic crates (wall-clock leaks into results)",
        protects: "parallel == serial bit-identity (PR 2 determinism harness)",
        crates: CrateScope::Only(DETERMINISTIC_CRATES),
        files: FileScope::All,
        include_tests: false,
    },
    Rule {
        id: "det-rng",
        summary: "no ambient RNG (thread_rng/from_entropy/rand::random) in deterministic crates",
        protects: "seeded reproducibility of every experiment (PR 1/PR 2)",
        crates: CrateScope::Only(DETERMINISTIC_CRATES),
        files: FileScope::All,
        include_tests: false,
    },
    Rule {
        id: "panic-freedom",
        summary: "no unwrap/expect/panic!/unreachable!/unchecked indexing in the request path",
        protects: "a malformed request never kills a connection thread (PR 4 serving \
                   layer); a corrupt snapshot or injected fault degrades, never aborts (PR 8)",
        crates: CrateScope::Only(&["tsg_serve", "tsg_faults", "tsg_trace"]),
        files: FileScope::Only(REQUEST_PATH_FILES),
        include_tests: false,
    },
    Rule {
        id: "unsafe-audit",
        summary: "every `unsafe` must carry an adjacent `// SAFETY:` justification",
        protects: "memory safety is reviewable: no unexplained unsafe anywhere",
        crates: CrateScope::All,
        files: FileScope::All,
        include_tests: true,
    },
    Rule {
        id: "thread-discipline",
        summary: "no thread spawning outside tsg_parallel and the documented tsg_serve sites",
        protects: "one shared pool, one determinism story (PR 2 ThreadPool); the \
                   event loop and epoll shim stay single-threaded (PR 7)",
        crates: CrateScope::Except(&["tsg_parallel"]),
        files: FileScope::Except(SERVE_THREAD_SPAWNERS),
        include_tests: false,
    },
    Rule {
        id: "fault-seam",
        summary: "no direct std::fs / File I/O where the tsg_faults::fsio seam is mandatory",
        protects: "deterministic fault schedules reach every storage-path file touch \
                   (PR 8 chaos harness) — a bypassed seam is an untestable failure mode",
        crates: CrateScope::Only(&["tsg_datasets", "tsg_serve"]),
        files: FileScope::Only(FAULT_SEAM_FILES),
        include_tests: false,
    },
    Rule {
        id: "clock-discipline",
        summary: "no Instant/SystemTime outside tsg_serve/tsg_trace (plus documented harnesses)",
        protects: "tracing observes, never perturbs (PR 9 observability): every clock read \
                   lives in the serving/tracing layer; deterministic crates surface timings \
                   through the clock-free TraceSink seam",
        crates: CrateScope::Except(&["tsg_serve", "tsg_trace"]),
        files: FileScope::Except(CLOCK_EXEMPT_FILES),
        include_tests: false,
    },
    Rule {
        id: "env-discipline",
        summary: "no std::env::var outside the documented config entry points",
        protects:
            "configuration is explicit and testable (TSC_MVG_THREADS, TSG_UCR_DIR, cache dir)",
        crates: CrateScope::All,
        files: FileScope::Except(ENV_ENTRY_POINTS),
        include_tests: false,
    },
];

/// Looks up a rule by id (the `suppression` meta-rule is not in the table —
/// it has no scope and cannot be suppressed).
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Whether `id` names a rule a `tsg-allow` directive may reference.
pub fn is_known_rule(id: &str) -> bool {
    rule_by_id(id).is_some()
}

impl Rule {
    /// Whether the rule applies to `crate_name`/`rel_path` at all.
    pub fn applies_to(&self, crate_name: &str, rel_path: &str) -> bool {
        let crate_ok = match self.crates {
            CrateScope::All => true,
            CrateScope::Only(list) => list.contains(&crate_name),
            CrateScope::Except(list) => !list.contains(&crate_name),
        };
        if !crate_ok {
            return false;
        }
        match self.files {
            FileScope::All => true,
            FileScope::Only(list) => list.iter().any(|(c, p)| *c == crate_name && *p == rel_path),
            FileScope::Except(list) => {
                !list.iter().any(|(c, p)| *c == crate_name && *p == rel_path)
            }
        }
    }
}

/// A rule hit before suppression filtering.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// 1-based source line.
    pub line: u32,
    /// Human explanation with the offending construct named.
    pub message: String,
}

/// Keywords that may directly precede `[` without it being an index
/// expression (`&mut [f64]`, `return [..]`, `match x { .. => [..] }`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "union",
    "unsafe", "use", "where", "while", "yield",
];

/// Runs the token matcher for `rule` over a comment-free token stream.
/// `safety_lines` is the set of lines carrying a `SAFETY:` comment (only
/// the unsafe-audit rule reads it).
pub fn check(rule: &Rule, toks: &[&Tok], safety_lines: &[u32]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    match rule.id {
        "det-collections" => {
            flag_idents(toks, &["HashMap", "HashSet"], &mut out, |name| {
                format!("`{name}` iterates in random order — use BTreeMap/BTreeSet or sorted keys")
            });
        }
        "det-time" => {
            flag_idents(toks, &["Instant", "SystemTime"], &mut out, |name| {
                format!("`{name}` reads the wall clock — deterministic code must not observe time")
            });
        }
        "det-rng" => {
            flag_idents(toks, &["thread_rng", "from_entropy"], &mut out, |name| {
                format!("`{name}` draws ambient entropy — thread an explicit seeded RNG instead")
            });
            for i in path_heads(toks, "rand") {
                if toks[i + 3].is_ident("random") {
                    out.push(RawFinding {
                        line: toks[i + 3].line,
                        message: "`rand::random` draws ambient entropy — thread an explicit \
                                  seeded RNG instead"
                            .to_string(),
                    });
                }
            }
        }
        "panic-freedom" => check_panic_freedom(toks, &mut out),
        "unsafe-audit" => {
            for tok in toks {
                if tok.is_ident("unsafe") && !has_safety_comment(safety_lines, tok.line) {
                    out.push(RawFinding {
                        line: tok.line,
                        message: "`unsafe` without an adjacent `// SAFETY:` comment — justify \
                                  the invariants that make it sound"
                            .to_string(),
                    });
                }
            }
        }
        "thread-discipline" => {
            // raw std::thread entry points; going through the shared
            // ThreadPool (including its `scope` spawner) stays legal
            for i in path_heads(toks, "thread") {
                let tail = toks[i + 3];
                if ["spawn", "scope", "Builder"]
                    .iter()
                    .any(|n| tail.is_ident(n))
                {
                    out.push(RawFinding {
                        line: tail.line,
                        message: format!(
                            "`thread::{}` outside tsg_parallel/tsg_serve — run work on the \
                             shared ThreadPool",
                            tail.text
                        ),
                    });
                }
            }
        }
        "fault-seam" => {
            // std::fs entry points with an fsio equivalent (read_dir has
            // none and stays legal — listing is not in the torn-write
            // threat model)
            const FS_TAILS: &[&str] = &[
                "rename",
                "remove_file",
                "write",
                "read",
                "read_to_string",
                "copy",
                "create_dir_all",
                "OpenOptions",
            ];
            for i in path_heads(toks, "fs") {
                let tail = toks[i + 3];
                if FS_TAILS.iter().any(|n| tail.is_ident(n)) {
                    out.push(RawFinding {
                        line: tail.line,
                        message: format!(
                            "`fs::{}` bypasses the fault-injection seam — route this file \
                             touch through tsg_faults::fsio",
                            tail.text
                        ),
                    });
                }
            }
            for i in path_heads(toks, "File") {
                let tail = toks[i + 3];
                if tail.is_ident("open") || tail.is_ident("create") {
                    out.push(RawFinding {
                        line: tail.line,
                        message: format!(
                            "`File::{}` bypasses the fault-injection seam — use \
                             tsg_faults::fsio::{} so chaos schedules can reach it",
                            tail.text, tail.text
                        ),
                    });
                }
            }
        }
        "clock-discipline" => {
            flag_idents(toks, &["Instant", "SystemTime"], &mut out, |name| {
                format!(
                    "`{name}` reads a clock outside the serving/tracing layer — clocks live \
                     in tsg_trace/tsg_serve; expose timings through the TraceSink seam"
                )
            });
        }
        "env-discipline" => {
            const VAR_FAMILY: &[&str] =
                &["var", "var_os", "vars", "vars_os", "set_var", "remove_var"];
            for i in path_heads(toks, "env") {
                let tail = toks[i + 3];
                if VAR_FAMILY.iter().any(|v| tail.is_ident(v)) {
                    out.push(RawFinding {
                        line: tail.line,
                        message: format!(
                            "`env::{}` outside the documented config entry points — accept \
                             configuration through arguments",
                            tail.text
                        ),
                    });
                }
            }
        }
        other => {
            debug_assert!(false, "no matcher for rule `{other}`");
        }
    }
    out
}

/// Flags every occurrence of the given identifiers.
fn flag_idents(
    toks: &[&Tok],
    names: &[&str],
    out: &mut Vec<RawFinding>,
    message: impl Fn(&str) -> String,
) {
    for tok in toks {
        if names.iter().any(|n| tok.is_ident(n)) {
            out.push(RawFinding {
                line: tok.line,
                message: message(&tok.text),
            });
        }
    }
}

/// Indices `i` where the stream reads `head :: <something>` (so `toks[i+3]`
/// is the path segment after the separator).
fn path_heads<'a>(toks: &'a [&Tok], head: &'a str) -> impl Iterator<Item = usize> + 'a {
    (0..toks.len().saturating_sub(3)).filter(move |&i| {
        toks[i].is_ident(head) && toks[i + 1].is_punct(':') && toks[i + 2].is_punct(':')
    })
}

fn check_panic_freedom(toks: &[&Tok], out: &mut Vec<RawFinding>) {
    for (i, tok) in toks.iter().enumerate() {
        // .unwrap( / .expect(
        if (tok.is_ident("unwrap") || tok.is_ident("expect"))
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            out.push(RawFinding {
                line: tok.line,
                message: format!(
                    "`.{}()` can panic on a malformed request — return a 4xx/5xx wire error \
                     or recover explicitly",
                    tok.text
                ),
            });
        }
        // panicking macros
        if toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && ["panic", "unreachable", "todo", "unimplemented"]
                .iter()
                .any(|m| tok.is_ident(m))
        {
            out.push(RawFinding {
                line: tok.line,
                message: format!(
                    "`{}!` aborts the connection thread — request handling must degrade to an \
                     error response",
                    tok.text
                ),
            });
        }
        // unchecked index/slice: `expr[...]` where expr ends in an
        // identifier, `)` , `]` or `?`
        if tok.is_punct('[') && i > 0 {
            let prev = toks[i - 1];
            let indexes = (prev.kind == crate::lexer::TokKind::Ident
                && !NON_INDEX_KEYWORDS.contains(&prev.text.as_str())
                && prev.text != "self")
                || prev.is_punct(')')
                || prev.is_punct(']')
                || prev.is_punct('?');
            if indexes {
                out.push(RawFinding {
                    line: tok.line,
                    message: "unchecked `[...]` indexing can panic — use `.get(..)` and map the \
                              miss to a wire error (or suppress with the bounds proof)"
                        .to_string(),
                });
            }
        }
    }
}

/// Whether a `SAFETY:` comment sits on `line` or up to two lines above it
/// (covering a comment block directly over the unsafe site).
fn has_safety_comment(safety_lines: &[u32], line: u32) -> bool {
    safety_lines
        .iter()
        .any(|&l| l <= line && line.saturating_sub(l) <= 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_filter_crates_and_files() {
        let det = rule_by_id("det-collections").unwrap();
        assert!(det.applies_to("tsg_core", "src/extractor.rs"));
        assert!(!det.applies_to("tsg_serve", "src/server.rs"));
        assert!(!det.applies_to("tsg_bench", "src/lib.rs"));

        let panic = rule_by_id("panic-freedom").unwrap();
        assert!(panic.applies_to("tsg_serve", "src/http.rs"));
        assert!(panic.applies_to("tsg_serve", "src/epoll.rs"));
        assert!(panic.applies_to("tsg_serve", "src/event_loop.rs"));
        assert!(panic.applies_to("tsg_serve", "src/snapshot.rs"));
        assert!(panic.applies_to("tsg_faults", "src/lib.rs"));
        assert!(panic.applies_to("tsg_trace", "src/lib.rs"));
        assert!(!panic.applies_to("tsg_serve", "src/metrics.rs"));
        assert!(!panic.applies_to("tsg_core", "src/http.rs"));

        let seam = rule_by_id("fault-seam").unwrap();
        assert!(seam.applies_to("tsg_datasets", "src/cache.rs"));
        assert!(seam.applies_to("tsg_serve", "src/snapshot.rs"));
        assert!(!seam.applies_to("tsg_serve", "src/http.rs"));
        assert!(!seam.applies_to("tsg_faults", "src/lib.rs"));

        let env = rule_by_id("env-discipline").unwrap();
        assert!(!env.applies_to("tsg_parallel", "src/lib.rs"));
        assert!(!env.applies_to("tsg_trace", "src/log.rs"));
        assert!(env.applies_to("tsg_parallel", "src/other.rs"));
        assert!(env.applies_to("tsg_core", "src/lib.rs"));

        let clocks = rule_by_id("clock-discipline").unwrap();
        assert!(clocks.applies_to("tsg_core", "src/extractor.rs"));
        assert!(clocks.applies_to("tsg_graph", "src/lib.rs"));
        assert!(!clocks.applies_to("tsg_serve", "src/event_loop.rs"));
        assert!(!clocks.applies_to("tsg_trace", "src/lib.rs"));
        assert!(!clocks.applies_to("tsg_eval", "src/timing.rs"));
        assert!(!clocks.applies_to("tsg_bench", "src/bin/fig6_fig7_classifiers.rs"));

        let threads = rule_by_id("thread-discipline").unwrap();
        assert!(!threads.applies_to("tsg_serve", "src/server.rs"));
        assert!(!threads.applies_to("tsg_serve", "src/batcher.rs"));
        assert!(!threads.applies_to("tsg_parallel", "src/lib.rs"));
        assert!(threads.applies_to("tsg_serve", "src/event_loop.rs"));
        assert!(threads.applies_to("tsg_serve", "src/epoll.rs"));
        assert!(threads.applies_to("tsg_core", "src/extractor.rs"));
    }

    #[test]
    fn every_rule_id_is_unique_and_known() {
        for (i, rule) in RULES.iter().enumerate() {
            assert!(is_known_rule(rule.id));
            for other in &RULES[i + 1..] {
                assert_ne!(rule.id, other.id);
            }
        }
        assert!(
            !is_known_rule(SUPPRESSION_RULE),
            "meta-rule is not allowable"
        );
    }
}
