//! Determinism lint: scan workspace sources for reproducibility hazards.
//!
//! The whole repository's value rests on bit-identical replay — fault
//! campaigns, figure sweeps, and the committed `results/*.json` artifacts
//! all assume that the same seed produces the same bytes. This lint walks
//! every non-test source line in the workspace and flags the constructs
//! that silently break that:
//!
//! * **hash-container** — hash-ordered maps/sets: iteration order varies
//!   per process (the hasher is randomly seeded), so any simulation state
//!   kept in one replays differently. Use ordered containers.
//! * **wall-clock** — reads of host time: anything derived from it differs
//!   per run. Simulation time is `SimTime`; host time is only legitimate
//!   in self-timing harness code.
//! * **ambient-rng** — OS-entropy randomness: unseedable, so unreplayable.
//!   All stochastic choices must flow from an explicit seeded generator.
//! * **truncating-time-cast** — narrowing `as` casts applied to timing
//!   arithmetic: picosecond counts overflow `u32` after ~4 ms of simulated
//!   time and `as` wraps silently.
//! * **raw-thread-spawn** — threads spawned outside the `kernel::par`
//!   substrate: raw spawns make scheduling order part of the result.
//!   `parallel_map` pins result order to input order; it is the only
//!   sanctioned way to go wide.
//! * **shared-mutable-state** — `Mutex`/`RwLock`/atomics outside
//!   `kernel::par`: state mutated from several threads replays in
//!   scheduling order, not program order. Reporting-only gauges (which
//!   never feed back into simulation) are annotated where they live.
//!
//! A finding on an audited, genuinely-legitimate line is silenced with a
//! `// lint-allow: <rule>` comment on the same or the preceding line; the
//! lint reports allowed findings separately (and per rule) so CI can see
//! they stay rare. An allow that silences nothing — the hazard it excused
//! was removed, or the named rule never fires on its line — is itself a
//! **stale-allow** finding, so escape comments cannot outlive their
//! justification.
//! Lines inside a file's trailing `#[cfg(test)]` module (the repository's
//! test-module convention) and comment lines are skipped.
//!
//! The needle strings below are assembled by concatenation so this file
//! never contains its own hazards verbatim.

use std::fs;
use std::path::{Path, PathBuf};

/// One lint rule: a name, the substrings that trigger it, an optional
/// context requirement, an exempt-path list, and remediation advice.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Rule name, as used in `lint-allow:` comments.
    pub name: &'static str,
    /// A line matches when it contains any of these.
    needles: Vec<String>,
    /// If set, a needle match only counts when the line also contains one
    /// of these (used to scope cast checks to timing arithmetic).
    context: Option<Vec<String>>,
    /// Path substrings this rule does not apply to — the one module that
    /// legitimately owns the hazardous construct (e.g. the parallelism
    /// substrate for thread spawns).
    exempt_paths: Vec<&'static str>,
    /// What to do instead.
    pub advice: &'static str,
}

impl Rule {
    fn matches(&self, line: &str) -> bool {
        self.needles.iter().any(|n| line.contains(n.as_str()))
            && self
                .context
                .as_ref()
                .is_none_or(|ctx| ctx.iter().any(|c| line.contains(c.as_str())))
    }

    fn applies_to(&self, file: &Path) -> bool {
        let file = file.to_string_lossy();
        !self.exempt_paths.iter().any(|p| file.contains(p))
    }
}

/// The rule set. Needles are concatenated at runtime so this source file
/// cannot trip its own scan.
pub fn rules() -> Vec<Rule> {
    let join = |parts: &[&str]| parts.concat();
    vec![
        Rule {
            name: "hash-container",
            needles: vec![join(&["Hash", "Map"]), join(&["Hash", "Set"])],
            context: None,
            exempt_paths: vec![],
            advice: "hash-ordered containers iterate in a per-process random order; \
                     keep simulation state in ordered containers (BTreeMap/BTreeSet)",
        },
        Rule {
            name: "wall-clock",
            needles: vec![join(&["Instant", "::now"]), join(&["System", "Time"])],
            context: None,
            exempt_paths: vec![],
            advice: "host time differs per run; use SimTime for model time, and \
                     annotate genuine self-timing harness code with lint-allow",
        },
        Rule {
            name: "ambient-rng",
            needles: vec![
                join(&["thread", "_rng"]),
                join(&["from_", "entropy"]),
                join(&["rand", "::random"]),
                join(&["get", "random"]),
            ],
            context: None,
            exempt_paths: vec![],
            advice: "OS-entropy randomness is unreplayable; derive every random \
                     choice from an explicitly seeded generator",
        },
        Rule {
            name: "truncating-time-cast",
            needles: vec![
                join(&[" as", " u8"]),
                join(&[" as", " u16"]),
                join(&[" as", " u32"]),
                join(&[" as", " i32"]),
            ],
            context: Some(vec![
                join(&["Sim", "Time"]),
                join(&["Sim", "Duration"]),
                join(&["_", "ps"]),
                join(&["ps", "()"]),
            ]),
            exempt_paths: vec![],
            advice: "narrowing casts on picosecond arithmetic wrap silently after \
                     milliseconds of simulated time; stay in u64/u128 or use \
                     checked conversions",
        },
        Rule {
            name: "raw-thread-spawn",
            needles: vec![join(&["thread::", "spawn"]), join(&["scope.", "spawn"])],
            context: None,
            // The parallelism substrate is the one module allowed to spawn:
            // its ordered map is what everyone else must go through.
            exempt_paths: vec!["crates/sim/src/par.rs"],
            advice: "raw thread spawns make scheduling part of the result; route \
                     parallel work through kernel::par::parallel_map, which pins \
                     result order to input order",
        },
        Rule {
            name: "shared-mutable-state",
            needles: vec![
                join(&["Mutex", "<"]),
                join(&["Mutex", "::"]),
                join(&["RwLock", "<"]),
                join(&["RwLock", "::"]),
                join(&["Atomic", "U"]),
                join(&["Atomic", "I"]),
                join(&["Atomic", "Bool"]),
            ],
            context: None,
            exempt_paths: vec!["crates/sim/src/par.rs"],
            advice: "cross-thread mutable state makes results depend on scheduling; \
                     keep state owned by one worker (kernel::par moves items, never \
                     shares them) and annotate reporting-only gauges with lint-allow",
        },
    ]
}

/// One hazard found in a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File, relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Name of the violated rule.
    pub rule: &'static str,
    /// The offending line, trimmed.
    pub excerpt: String,
}

/// Everything a scan produced.
#[derive(Debug, Clone, Default)]
pub struct ScanOutcome {
    /// Unexplained hazards — these fail CI.
    pub findings: Vec<Finding>,
    /// Hazards silenced by a `lint-allow` comment.
    pub allowed: usize,
    /// The silenced hazards broken down by rule name — committed to
    /// `results/verify.json` so an allow added anywhere shows up in review.
    pub allowed_by_rule: std::collections::BTreeMap<String, usize>,
    /// Source files scanned.
    pub files: usize,
}

const ALLOW_MARKER: &str = "lint-allow:";

/// The rule name an allow comment on `line` names, if any. Doc prose that
/// mentions the marker without a concrete rule (`lint-allow: <rule>`)
/// parses to no name and is ignored.
fn allow_rule_on(line: &str) -> Option<&str> {
    let at = line.find(ALLOW_MARKER)?;
    let rest = line[at + ALLOW_MARKER.len()..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_alphanumeric() && c != '-' && c != '_')
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// Scan one file's source text. `file` is the path recorded in findings.
pub fn scan_source(file: &Path, src: &str, rules: &[Rule]) -> ScanOutcome {
    let mut out = ScanOutcome {
        files: 1,
        ..ScanOutcome::default()
    };
    // Allow comments seen so far: (line index, named rule, used?). An
    // allow that silences nothing is itself a finding — stale escapes
    // otherwise outlive the hazard they excused and rot silently.
    let mut allows: Vec<(usize, String, bool)> = Vec::new();
    let mut prev_line = "";
    let mut prev_idx = 0usize;
    for (i, line) in src.lines().enumerate() {
        let trimmed = line.trim_start();
        // Repository convention: the test module is the tail of the file.
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if let Some(rule) = allow_rule_on(line) {
            allows.push((i, rule.to_string(), false));
        }
        if trimmed.starts_with("//") {
            prev_line = line;
            prev_idx = i;
            continue;
        }
        for rule in rules {
            if !rule.applies_to(file) || !rule.matches(line) {
                continue;
            }
            let allow = format!("{} {}", ALLOW_MARKER, rule.name);
            let silenced_at = if line.contains(&allow) {
                Some(i)
            } else if prev_line.contains(&allow) {
                Some(prev_idx)
            } else {
                None
            };
            if let Some(at) = silenced_at {
                out.allowed += 1;
                *out.allowed_by_rule
                    .entry(rule.name.to_string())
                    .or_default() += 1;
                for a in &mut allows {
                    if a.0 == at && a.1 == rule.name {
                        a.2 = true;
                    }
                }
            } else {
                out.findings.push(Finding {
                    file: file.to_path_buf(),
                    line: i + 1,
                    rule: rule.name,
                    excerpt: trimmed.trim_end().to_string(),
                });
            }
        }
        prev_line = line;
        prev_idx = i;
    }
    for (i, rule, used) in allows {
        if !used {
            out.findings.push(Finding {
                file: file.to_path_buf(),
                line: i + 1,
                rule: "stale-allow",
                excerpt: format!(
                    "`{ALLOW_MARKER} {rule}` silences nothing on this or the next \
                     line; remove the comment"
                ),
            });
        }
    }
    out.findings
        .sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

fn rust_sources_under(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort(); // deterministic scan order
    for path in entries {
        if path.is_dir() {
            rust_sources_under(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan every workspace source directory under `root`: the root crate's
/// `src/` and each `crates/*/src/`. Vendored `third_party/` code and the
/// `tests/` and `examples/` trees are exempt — they are not simulation
/// state.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn scan_workspace(root: &Path) -> std::io::Result<ScanOutcome> {
    let rules = rules();
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        rust_sources_under(&root_src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path().join("src"))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for src_dir in members {
            rust_sources_under(&src_dir, &mut files)?;
        }
    }
    let mut total = ScanOutcome::default();
    for path in files {
        let src = fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let one = scan_source(rel, &src, &rules);
        total.findings.extend(one.findings);
        total.allowed += one.allowed;
        for (rule, n) in one.allowed_by_rule {
            *total.allowed_by_rule.entry(rule).or_default() += n;
        }
        total.files += 1;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> ScanOutcome {
        scan_source(Path::new("x.rs"), src, &rules())
    }

    #[test]
    fn detects_hash_containers_and_names_the_rule() {
        let out = scan("    let m: HashMap<u64, u64> = HashMap::new();\n");
        assert_eq!(out.findings.len(), 1, "one finding per line per rule");
        assert_eq!(out.findings[0].rule, "hash-container");
        assert_eq!(out.findings[0].line, 1);
    }

    #[test]
    fn allow_comment_on_same_or_previous_line_silences() {
        let same = scan("let t = Instant::now(); // lint-allow: wall-clock\n");
        assert!(same.findings.is_empty());
        assert_eq!(same.allowed, 1);
        let prev = scan("// lint-allow: wall-clock\nlet t = Instant::now();\n");
        assert!(prev.findings.is_empty());
        assert_eq!(prev.allowed, 1);
        // An allow naming the wrong rule silences nothing: the hazard is
        // still reported, and the allow itself is stale.
        let wrong = scan("let t = Instant::now(); // lint-allow: ambient-rng\n");
        assert_eq!(wrong.findings.len(), 2, "{:?}", wrong.findings);
        assert!(wrong.findings.iter().any(|f| f.rule == "wall-clock"));
        assert!(wrong.findings.iter().any(|f| f.rule == "stale-allow"));
    }

    #[test]
    fn test_tail_and_comments_are_skipped() {
        let src = "// a HashMap in a comment is fine\nfn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let out = scan(src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn a_stale_allow_is_itself_a_finding() {
        // The hazard the allow excused is gone: the comment must go too.
        let gone = scan("// lint-allow: wall-clock\nlet t = sim.now();\n");
        assert_eq!(gone.findings.len(), 1, "{:?}", gone.findings);
        assert_eq!(gone.findings[0].rule, "stale-allow");
        assert_eq!(gone.findings[0].line, 1);
        assert!(gone.findings[0].excerpt.contains("wall-clock"));
        // A misspelled rule name can never silence anything.
        let typo = scan("let t = Instant::now(); // lint-allow: wall-clok\n");
        assert_eq!(typo.findings.len(), 2, "{:?}", typo.findings);
        assert!(typo.findings.iter().any(|f| f.rule == "wall-clock"));
        assert!(typo.findings.iter().any(|f| f.rule == "stale-allow"));
        // A live allow is not stale.
        let live = scan("let t = Instant::now(); // lint-allow: wall-clock\n");
        assert!(live.findings.is_empty(), "{:?}", live.findings);
        // Doc prose naming the marker without a rule is ignored.
        let prose = scan("fn f() {} // silence with `lint-allow: <rule>`\n");
        assert!(prose.findings.is_empty(), "{:?}", prose.findings);
    }

    #[test]
    fn allowed_findings_are_counted_per_rule() {
        let out = scan(
            "let t = Instant::now(); // lint-allow: wall-clock\n\
             let u = Instant::now(); // lint-allow: wall-clock\n\
             static N: AtomicU64 = AtomicU64::new(0); // lint-allow: shared-mutable-state\n",
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.allowed, 3);
        assert_eq!(out.allowed_by_rule.get("wall-clock"), Some(&2));
        assert_eq!(out.allowed_by_rule.get("shared-mutable-state"), Some(&1));
    }

    #[test]
    fn truncating_cast_needs_timing_context() {
        let plain = scan("let x = n as u32;\n");
        assert!(plain.findings.is_empty(), "no timing context, no finding");
        let timed = scan("let x = now.as_ps() as u32;\n");
        assert_eq!(timed.findings.len(), 1);
        assert_eq!(timed.findings[0].rule, "truncating-time-cast");
    }

    #[test]
    fn ambient_rng_is_flagged() {
        let out = scan("let mut rng = rand::thread_rng();\n");
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "ambient-rng");
    }

    #[test]
    fn raw_spawn_and_shared_state_are_flagged_outside_the_par_module() {
        let spawn = scan("let h = std::thread::spawn(move || work());\n");
        assert_eq!(spawn.findings.len(), 1);
        assert_eq!(spawn.findings[0].rule, "raw-thread-spawn");
        let shared = scan("static COUNT: AtomicU64 = AtomicU64::new(0);\n");
        assert_eq!(shared.findings.len(), 1);
        assert_eq!(shared.findings[0].rule, "shared-mutable-state");
        let locked = scan("let m: Mutex<Vec<u64>> = Mutex::new(Vec::new());\n");
        assert_eq!(locked.findings.len(), 1);
        assert_eq!(locked.findings[0].rule, "shared-mutable-state");
    }

    #[test]
    fn par_module_is_exempt_from_parallelism_rules() {
        let src = "let h = std::thread::spawn(f);\nlet m = Mutex::new(0);\n";
        let inside = scan_source(Path::new("crates/sim/src/par.rs"), src, &rules());
        assert!(inside.findings.is_empty(), "{:?}", inside.findings);
        let outside = scan_source(Path::new("crates/net/src/sim.rs"), src, &rules());
        assert_eq!(outside.findings.len(), 2, "exemption is par.rs-only");
    }

    /// The epoch engine's one worker owns every result stream outright: a
    /// shared accumulator seeded into `CampaignWorker` is flagged on its
    /// own line, and the shipped file is clean.
    #[test]
    fn an_unmerged_shared_accumulator_is_flagged() {
        let rel = Path::new("crates/system/src/epoch.rs");
        let shipped = fs::read_to_string(crate::workspace_root().join(rel)).expect("epoch.rs");
        let anchor = "pub(crate) obs: Option<Box<ObsAcc>>,";
        let at = shipped.find(anchor).expect("anchor") + anchor.len();
        let mut seeded = shipped.clone();
        seeded.insert_str(at, "\n    pub(crate) totals: Arc<Mutex<u64>>,");
        let out = scan_source(rel, &seeded, &rules());
        let hits: Vec<_> = out.findings.iter().map(|f| (f.line, f.rule)).collect();
        let line = shipped[..at].lines().count() + 1;
        assert_eq!(hits, [(line, "shared-mutable-state")]);
        assert!(scan_source(rel, &shipped, &rules()).findings.is_empty());
    }

    /// The real gate: the workspace as shipped has zero unexplained
    /// findings (the CI lint job enforces the same with `-D` semantics).
    #[test]
    fn workspace_is_clean() {
        let out = scan_workspace(&crate::workspace_root()).expect("workspace scans");
        assert!(out.files > 30, "scanned only {} files", out.files);
        let rendered: Vec<String> = out
            .findings
            .iter()
            .map(|f| format!("{}:{} [{}] {}", f.file.display(), f.line, f.rule, f.excerpt))
            .collect();
        assert!(rendered.is_empty(), "{}", rendered.join("\n"));
    }
}
