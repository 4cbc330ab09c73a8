//! Static ownership lint for the epoch-parallel engine.
//!
//! The epoch engine's determinism argument rests on a *state partition*:
//! the one closed-loop region worker ([`CampaignWorker`], which runs both
//! the load test and the fault campaign) owns its region's slice of the
//! machine outright, cross-region effects flow only through
//! [`Outbox::emit`] under the lookahead contract, and the guide
//! ([`CampaignGuide`]) touches worker state only through an
//! [`EpochControl`] handle at epoch barriers. The runtime proptests
//! demonstrate the partition holds on the schedules they draw; this pass
//! proves the *code* cannot express the violations at all, by scanning
//! `crates/system/src/epoch.rs`, `crates/sim/src/shard.rs`, and
//! `crates/sim/src/par.rs` and checking every worker/guide method against
//! the partition discipline:
//!
//! * **Workers never reach for the epoch control.** A method in worker
//!   context (an `impl ShardWorker for …` block or an inherent impl of a
//!   worker type) must not mention `EpochControl`, `ctl.`, or the
//!   `worker`/`worker_mut` accessors — a worker's only cross-region
//!   channel is the outbox it is handed.
//! * **Guide state never leaks into a worker.** Fields that exist only on
//!   the guide (the fault plan, the watchdog, the master tables, …) must
//!   not be named `self.<field>` inside worker-context methods.
//! * **No shared accumulators.** Worker structs must not carry
//!   `Mutex`/`RwLock`/`RefCell`/`Cell`/atomic fields: an accumulator the
//!   barrier merge cannot see would make results depend on the shard
//!   schedule.
//! * **Guides mutate workers only under control.** A guide-context method
//!   that calls `worker_mut` must take an `EpochControl` parameter — the
//!   handle only exists between epochs, so the signature *is* the proof
//!   the write happens at a barrier.
//! * **Guides never drive event delivery**, and **nobody forges an
//!   outbox** outside the executor.
//!
//! Two structural proofs back the rules: `Outbox` exposes no public
//! fields (so [`Outbox::emit`], which enforces the lookahead contract, is
//! the only door), and `ShardWorker::handle` takes `&mut Outbox` (so a
//! worker cannot even type a cross-region effect that bypasses it).
//!
//! The pass also builds the per-field access map the rules consult —
//! which fields each context reads and writes, and which worker fields
//! the guide touches at barriers — and reports its shape so
//! `results/verify.json` pins the partition's surface area.
//!
//! The analysis is deliberately *textual* (token-boundary matching on
//! comment- and string-stripped source): it must run inside the ordinary
//! test suite with no compiler plumbing, and the properties it checks are
//! lexical — which identifiers appear in which scopes.
//!
//! [`CampaignWorker`]: ../../alphasim_system/index.html
//! [`CampaignGuide`]: ../../alphasim_system/index.html
//! [`Outbox::emit`]: alphasim_kernel::shard::Outbox::emit
//! [`Outbox`]: alphasim_kernel::shard::Outbox
//! [`EpochControl`]: alphasim_kernel::shard::EpochControl

use std::collections::BTreeMap;
use std::path::Path;

/// The files the partition discipline governs, relative to the workspace
/// root: the closed-loop region worker and its guide, the shard/epoch
/// infrastructure, and the worker pool.
pub const GOVERNED_FILES: [&str; 3] = [
    "crates/system/src/epoch.rs",
    "crates/sim/src/shard.rs",
    "crates/sim/src/par.rs",
];

/// One ownership violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnershipFinding {
    /// Governed file (workspace-relative path as given to [`analyze`]).
    pub file: String,
    /// 1-based line of the offending text.
    pub line: usize,
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Human explanation.
    pub message: String,
}

/// Read/write counts for one struct field, split by the context that
/// performed the access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FieldAccess {
    /// `self.field` reads in the owning type's methods.
    pub reads: usize,
    /// `self.field` writes in the owning type's methods.
    pub writes: usize,
    /// Guide accesses through `ctl.worker(…)`/`ctl.worker_mut(…)` — the
    /// sanctioned barrier-merge path (worker fields only).
    pub barrier: usize,
}

/// The result of an ownership scan.
#[derive(Debug, Clone)]
pub struct OwnershipScan {
    /// Files analyzed.
    pub files: usize,
    /// Per-type, per-field access map: `type -> field -> counts`.
    pub access: BTreeMap<String, BTreeMap<String, FieldAccess>>,
    /// Violations (empty on the shipped engine).
    pub findings: Vec<OwnershipFinding>,
}

impl OwnershipScan {
    /// Total fields tracked for `type_name` (0 when unknown).
    pub fn field_count(&self, type_name: &str) -> usize {
        self.access.get(type_name).map_or(0, BTreeMap::len)
    }

    /// Worker fields the guide touches through the control handle.
    pub fn barrier_touched_fields(&self, type_name: &str) -> usize {
        self.access.get(type_name).map_or(0, |fields| {
            fields.values().filter(|a| a.barrier > 0).count()
        })
    }
}

/// Replace comments and string/char literals with spaces, preserving the
/// line structure, so brace counting and token matching never trip over
/// `format!("{…}")` braces or quoted keywords.
fn neutralize(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out.extend([b' ', b' ']);
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out.extend([b' ', b' ']);
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => {
                            out.extend([b' ', b' ']);
                            i += 2;
                        }
                        b'"' => {
                            out.push(b' ');
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            out.push(b'\n');
                            i += 1;
                        }
                        _ => {
                            out.push(b' ');
                            i += 1;
                        }
                    }
                }
            }
            // A char literal ('x' or '\n'); lifetimes ('a, 'static) have
            // no closing quote within two characters and pass through.
            b'\'' => {
                let close = if bytes.get(i + 1) == Some(&b'\\') {
                    i + 3
                } else {
                    i + 2
                };
                if bytes.get(close) == Some(&b'\'') {
                    out.extend(std::iter::repeat_n(b' ', close + 1 - i));
                    i = close + 1;
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("spaces preserve UTF-8")
}

/// One parsed top-level item of a governed file.
#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        /// `(field, type-text, 1-based line)`.
        fields: Vec<(String, String, usize)>,
    },
    Impl {
        /// Base name of the implemented trait, if a trait impl.
        trait_name: Option<String>,
        /// Base name of the self type.
        target: String,
        /// `(name, signature, body, 1-based body start line)`.
        methods: Vec<(String, String, String, usize)>,
    },
    /// A trait definition with its raw body (for the structural proofs).
    Trait { name: String, body: String },
}

/// The base identifier of a type expression: `CampaignWorker<T>` →
/// `CampaignWorker`.
fn base_name(ty: &str) -> String {
    ty.trim()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

/// Split an impl header (already stripped of the leading `impl<…>`) into
/// `(trait, target)` at the ` for ` that sits outside angle brackets.
fn split_impl_header(rest: &str) -> (Option<String>, String) {
    let bytes = rest.as_bytes();
    let mut depth = 0i32;
    for i in 0..bytes.len().saturating_sub(4) {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' => depth -= 1,
            b' ' if depth == 0 && rest[i..].starts_with(" for ") => {
                return (Some(base_name(&rest[..i])), base_name(&rest[i + 5..]));
            }
            _ => {}
        }
    }
    (None, base_name(rest))
}

/// Skip a balanced `<…>` generic list starting at `at` (which must point
/// at `<`), returning the index one past the closing `>`.
fn skip_generics(s: &str, at: usize) -> usize {
    let bytes = s.as_bytes();
    let mut depth = 0i32;
    for (i, &b) in bytes.iter().enumerate().skip(at) {
        match b {
            b'<' => depth += 1,
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    s.len()
}

/// Parse the struct fields of a (neutralized) struct body: `name: Type,`
/// entries at angle-depth 0.
fn parse_fields(body: &str, body_start_line: usize) -> Vec<(String, String, usize)> {
    let mut fields = Vec::new();
    let mut angle = 0i32;
    let mut entry = String::new();
    let mut entry_line = None;
    let mut line = body_start_line;
    for c in body.chars() {
        match c {
            '\n' => {
                line += 1;
                entry.push(' ');
            }
            '<' => {
                angle += 1;
                entry.push(c);
            }
            '>' => {
                angle -= 1;
                entry.push(c);
            }
            ',' if angle == 0 => {
                if let Some((name, ty)) = split_field(&entry) {
                    fields.push((name, ty, entry_line.unwrap_or(line)));
                }
                entry.clear();
                entry_line = None;
            }
            _ => {
                if !c.is_whitespace() && entry_line.is_none() {
                    entry_line = Some(line);
                }
                entry.push(c);
            }
        }
    }
    if let Some((name, ty)) = split_field(&entry) {
        fields.push((name, ty, entry_line.unwrap_or(line)));
    }
    fields
}

fn split_field(entry: &str) -> Option<(String, String)> {
    let entry = entry.trim();
    let entry = entry
        .strip_prefix("pub(crate)")
        .or_else(|| entry.strip_prefix("pub"))
        .unwrap_or(entry)
        .trim();
    let (name, ty) = entry.split_once(':')?;
    let name = name.trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    Some((name.to_string(), ty.trim().to_string()))
}

/// Parse the methods of a (neutralized) impl body: `fn name(…) { … }`
/// items at relative depth 0.
fn parse_methods(body: &str, body_start_line: usize) -> Vec<(String, String, usize, String)> {
    // Returns (name, signature, body-start-line, body).
    let mut methods = Vec::new();
    let bytes = body.as_bytes();
    let mut line = body_start_line;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        // A method starts at `fn ` on a word boundary at depth 0.
        if body[i..].starts_with("fn ")
            && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric() && bytes[i - 1] != b'_')
        {
            let name: String = body[i + 3..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            // Signature runs to the opening brace (or a `;` for a
            // body-less trait method).
            let mut j = i;
            let mut sig_end = None;
            let mut sig_line = line;
            while j < bytes.len() {
                match bytes[j] {
                    b'{' => {
                        sig_end = Some(j);
                        break;
                    }
                    b';' => break,
                    b'\n' => sig_line += 1,
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = sig_end else {
                i = j + 1;
                line = sig_line;
                continue;
            };
            let sig = body[i..open].to_string();
            // Body runs to the matching close brace.
            let mut depth = 0i32;
            let mut k = open;
            let mut end = open;
            while k < bytes.len() {
                match bytes[k] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            end = k;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            methods.push((name, sig, sig_line, body[open..=end].to_string()));
            // Re-count lines across the body we just consumed.
            line = sig_line + body[open..=end].matches('\n').count();
            i = end + 1;
            continue;
        }
        i += 1;
    }
    methods
}

/// Parse a neutralized file into top-level items.
fn parse_items(clean: &str) -> Vec<Item> {
    let mut items = Vec::new();
    let bytes = clean.as_bytes();
    let mut i = 0;
    let mut line = 1usize;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        let rest = &clean[i..];
        let at_word_start = i == 0 || !bytes[i - 1].is_ascii_alphanumeric() && bytes[i - 1] != b'_';
        let keyword = ["struct ", "impl ", "impl<", "trait "]
            .into_iter()
            .find(|k| at_word_start && rest.starts_with(k));
        let Some(keyword) = keyword else {
            i += 1;
            continue;
        };
        // Header runs to the opening brace or a terminating `;` (tuple
        // structs, which carry no named fields and are skipped).
        let mut j = i;
        let mut open = None;
        let mut hdr_line = line;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    open = Some(j);
                    break;
                }
                b';' => break,
                b'\n' => hdr_line += 1,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            line = hdr_line;
            continue;
        };
        // Body runs to the matching close brace.
        let mut depth = 0i32;
        let mut k = open;
        let mut end = open;
        while k < bytes.len() {
            match bytes[k] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = k;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let header = &clean[i..open];
        let body = &clean[open + 1..end];
        let body_start_line = line + header.matches('\n').count();
        match keyword {
            "struct " => {
                let name = base_name(&header["struct ".len()..]);
                items.push(Item::Struct {
                    name,
                    fields: parse_fields(body, body_start_line),
                });
            }
            "trait " => {
                let name = base_name(&header["trait ".len()..]);
                items.push(Item::Trait {
                    name,
                    body: body.to_string(),
                });
            }
            _ => {
                // `impl` or `impl<…>`: skip the generic parameter list,
                // then split trait from target.
                let after = header["impl".len()..].trim_start();
                let rest = if after.starts_with('<') {
                    let skip = skip_generics(after, 0);
                    &after[skip..]
                } else {
                    after
                };
                let (trait_name, target) = split_impl_header(rest.trim());
                let methods = parse_methods(body, body_start_line)
                    .into_iter()
                    .map(|(n, s, l, b)| (n, s, b, l))
                    .collect();
                items.push(Item::Impl {
                    trait_name,
                    target,
                    methods,
                });
            }
        }
        line = hdr_line + clean[open..=end].matches('\n').count();
        i = end + 1;
    }
    items
}

/// Whether `needle` occurs in `hay` at a token boundary on both sides.
fn token_match(hay: &str, needle: &str) -> Option<usize> {
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let bytes = hay.as_bytes();
    let needle_starts_word = needle.bytes().next().is_some_and(is_word);
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = !needle_starts_word || at == 0 || !is_word(bytes[at - 1]);
        let end = at + needle.len();
        let needle_ends_word = needle.bytes().last().is_some_and(is_word);
        let after_ok = !needle_ends_word || end >= bytes.len() || !is_word(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// 1-based line of byte offset `at` within `text`, given the line `text`
/// starts on.
fn line_of(text: &str, at: usize, start_line: usize) -> usize {
    start_line + text[..at].matches('\n').count()
}

/// Whether a `self.field` occurrence at `at` is a write: followed by an
/// assignment operator or a known mutator call.
fn is_write(hay: &str, after: usize) -> bool {
    let rest = hay[after..].trim_start();
    for op in ["=", "+=", "-=", "*=", "/=", "&=", "|=", "^="] {
        if rest.starts_with(op) && !rest.starts_with("==") && !rest.starts_with("=>") {
            return true;
        }
    }
    [
        ".push(",
        ".insert(",
        ".remove(",
        ".clear(",
        ".extend(",
        ".push_back(",
        ".pop(",
        ".sort",
        ".truncate(",
    ]
    .into_iter()
    .any(|m| rest.starts_with(m))
}

/// Analyze `(path, source)` pairs. The paths are labels for findings; the
/// sources need not exist on disk, which is how the seeded-violation
/// tests feed doctored copies of the real engine through the lint.
pub fn analyze(sources: &[(String, String)]) -> OwnershipScan {
    let parsed: Vec<(String, Vec<Item>)> = sources
        .iter()
        .map(|(path, text)| (path.clone(), parse_items(&neutralize(text))))
        .collect();

    // Pass 1: discover worker and guide types and their fields.
    let mut worker_types: Vec<String> = Vec::new();
    let mut guide_types: Vec<String> = Vec::new();
    let mut struct_fields: BTreeMap<String, Vec<(String, String, usize)>> = BTreeMap::new();
    let mut struct_file: BTreeMap<String, String> = BTreeMap::new();
    for (path, items) in &parsed {
        for item in items {
            match item {
                Item::Struct { name, fields } => {
                    struct_fields.insert(name.clone(), fields.clone());
                    struct_file.insert(name.clone(), path.clone());
                }
                Item::Impl {
                    trait_name: Some(t),
                    target,
                    ..
                } if t == "ShardWorker" => worker_types.push(target.clone()),
                Item::Impl {
                    trait_name: Some(t),
                    target,
                    ..
                } if t == "EpochGuide" => guide_types.push(target.clone()),
                _ => {}
            }
        }
    }

    // Guide-only fields: on some guide type but on no worker type.
    let field_names = |types: &[String]| -> Vec<String> {
        let mut v: Vec<String> = types
            .iter()
            .filter_map(|t| struct_fields.get(t))
            .flatten()
            .map(|(n, _, _)| n.clone())
            .collect();
        v.sort();
        v.dedup();
        v
    };
    let worker_fields = field_names(&worker_types);
    let guide_only: Vec<String> = field_names(&guide_types)
        .into_iter()
        .filter(|f| !worker_fields.contains(f))
        .collect();

    let mut findings = Vec::new();
    let mut access: BTreeMap<String, BTreeMap<String, FieldAccess>> = BTreeMap::new();
    for t in worker_types.iter().chain(&guide_types) {
        let map = access.entry(t.clone()).or_default();
        for (f, _, _) in struct_fields.get(t).into_iter().flatten() {
            map.entry(f.clone()).or_default();
        }
    }

    // Rule: no shared-mutable accumulator fields on worker structs. The
    // needles are concatenated at runtime so the determinism lint does
    // not flag this file for naming the types it bans.
    let shared_markers: Vec<String> = ["Mutex", "RwLock", "RefCell", "Cell"]
        .iter()
        .map(|t| [t, "<"].concat())
        .chain(std::iter::once(["Atom", "ic"].concat()))
        .collect();
    for t in &worker_types {
        for (f, ty, fline) in struct_fields.get(t).into_iter().flatten() {
            if shared_markers.iter().any(|m| ty.contains(m.as_str())) {
                findings.push(OwnershipFinding {
                    file: struct_file.get(t).cloned().unwrap_or_default(),
                    line: *fline,
                    rule: "shared-accumulator-field",
                    message: format!(
                        "worker field `{t}.{f}: {ty}` is shared mutable state the \
                         barrier merge cannot see; accumulate in region-owned state \
                         and merge at the barrier"
                    ),
                });
            }
        }
    }

    // Pass 2: walk methods in worker/guide context.
    for (path, items) in &parsed {
        for item in items {
            let Item::Impl {
                trait_name,
                target,
                methods,
            } = item
            else {
                continue;
            };
            let worker_ctx =
                worker_types.contains(target) || trait_name.as_deref() == Some("ShardWorker");
            let guide_ctx =
                guide_types.contains(target) || trait_name.as_deref() == Some("EpochGuide");
            if !worker_ctx && !guide_ctx {
                continue;
            }
            for (mname, sig, body, bline) in methods {
                // Access map: `self.<field>` of the impl target.
                if let Some(fields) = struct_fields.get(target) {
                    for (f, _, _) in fields {
                        let needle = format!("self.{f}");
                        let mut from = 0;
                        while let Some(at) = token_match(&body[from..], &needle) {
                            let abs = from + at;
                            let entry = access
                                .entry(target.clone())
                                .or_default()
                                .entry(f.clone())
                                .or_default();
                            if is_write(body, abs + needle.len()) {
                                entry.writes += 1;
                            } else {
                                entry.reads += 1;
                            }
                            from = abs + needle.len();
                        }
                    }
                }
                if worker_ctx {
                    // Rule: workers never reach for the epoch control.
                    for needle in ["EpochControl", "ctl.", ".worker_mut(", ".worker("] {
                        if let Some(at) = token_match(body, needle) {
                            findings.push(OwnershipFinding {
                                file: path.clone(),
                                line: line_of(body, at, *bline),
                                rule: "worker-touches-control",
                                message: format!(
                                    "worker method `{target}::{mname}` mentions `{needle}`: \
                                     cross-region effects must flow through the outbox, and \
                                     only the guide holds the epoch control"
                                ),
                            });
                        }
                    }
                    // Rule: guide state never appears inside a worker.
                    for f in &guide_only {
                        let needle = format!("self.{f}");
                        if let Some(at) = token_match(body, &needle) {
                            findings.push(OwnershipFinding {
                                file: path.clone(),
                                line: line_of(body, at, *bline),
                                rule: "guide-state-in-worker",
                                message: format!(
                                    "worker method `{target}::{mname}` reads guide-owned \
                                     state `{f}`: barrier-plane state is invisible inside \
                                     an epoch"
                                ),
                            });
                        }
                    }
                }
                if guide_ctx {
                    // Rule: worker mutation only under an EpochControl
                    // parameter (the handle exists only at barriers).
                    if token_match(body, ".worker_mut(").is_some() && !sig.contains("EpochControl")
                    {
                        findings.push(OwnershipFinding {
                            file: path.clone(),
                            line: *bline,
                            rule: "ungated-worker-mutation",
                            message: format!(
                                "guide method `{target}::{mname}` mutates workers without \
                                 an EpochControl parameter: worker writes must be gated \
                                 by a barrier handle"
                            ),
                        });
                    }
                    // Rule: guides never drive event delivery directly.
                    if let Some(at) = token_match(body, ".handle(") {
                        findings.push(OwnershipFinding {
                            file: path.clone(),
                            line: line_of(body, at, *bline),
                            rule: "guide-drives-events",
                            message: format!(
                                "guide method `{target}::{mname}` calls `handle` directly: \
                                 event delivery belongs to the epoch executor"
                            ),
                        });
                    }
                    // Access map: barrier-path touches of worker fields.
                    for wt in &worker_types {
                        for (f, _, _) in struct_fields.get(wt).into_iter().flatten() {
                            for acc in ["worker_mut(", "worker("] {
                                let mut from = 0;
                                while let Some(at) = token_match(&body[from..], acc) {
                                    let abs = from + at + acc.len();
                                    // `worker*(idx).field`: find the close
                                    // paren, then match `.field`.
                                    if let Some(close) = body[abs..].find(')') {
                                        let after = &body[abs + close + 1..];
                                        if after.starts_with(&format!(".{f}"))
                                            && !after[1 + f.len()..].starts_with(|c: char| {
                                                c.is_alphanumeric() || c == '_'
                                            })
                                        {
                                            access
                                                .entry(wt.clone())
                                                .or_default()
                                                .entry(f.clone())
                                                .or_default()
                                                .barrier += 1;
                                        }
                                    }
                                    from = abs;
                                }
                            }
                        }
                    }
                }
            }
        }
        // Rule: nobody forges an outbox outside the infrastructure file.
        if !path.ends_with("shard.rs") {
            for (_, items_text) in sources.iter().filter(|(p, _)| p == path) {
                let clean = neutralize(items_text);
                for needle in ["Outbox {", "Outbox::new("] {
                    if let Some(at) = clean.find(needle) {
                        findings.push(OwnershipFinding {
                            file: path.clone(),
                            line: line_of(&clean, at, 1),
                            rule: "outbox-forged",
                            message: "outboxes are built only by the epoch executor; \
                                      emit through the one you were handed"
                                .to_string(),
                        });
                    }
                }
            }
        }
    }

    // Structural proofs on the infrastructure file.
    for (path, items) in &parsed {
        if !path.ends_with("shard.rs") {
            continue;
        }
        for item in items {
            match item {
                Item::Struct { name, fields } if name == "Outbox" => {
                    // The parser strips `pub` markers while splitting
                    // fields, so re-check the raw source line instead.
                    let raw = &sources
                        .iter()
                        .find(|(p, _)| p == path)
                        .expect("parsed from sources")
                        .1;
                    for (f, _, fline) in fields {
                        let line_text = raw.lines().nth(fline - 1).unwrap_or_default();
                        if line_text.trim_start().starts_with("pub") {
                            findings.push(OwnershipFinding {
                                file: path.clone(),
                                line: *fline,
                                rule: "outbox-field-exposed",
                                message: format!(
                                    "Outbox field `{f}` is public: emit() must be the \
                                     only way to produce a cross-region effect"
                                ),
                            });
                        }
                    }
                }
                Item::Trait { name, body } if name == "ShardWorker" => {
                    let has_outbox_param = body.split("fn handle").nth(1).is_some_and(|sig| {
                        sig.split('{').next().is_some_and(|s| s.contains("Outbox"))
                    });
                    if !has_outbox_param {
                        findings.push(OwnershipFinding {
                            file: path.clone(),
                            line: 1,
                            rule: "handle-without-outbox",
                            message: "ShardWorker::handle must take &mut Outbox so every \
                                      cross-region effect is typed through emit()"
                                .to_string(),
                        });
                    }
                }
                _ => {}
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    OwnershipScan {
        files: sources.len(),
        access,
        findings,
    }
}

/// Run [`analyze`] on the governed files under `root`.
///
/// # Errors
///
/// Propagates the I/O error if a governed file cannot be read.
pub fn scan_workspace(root: &Path) -> std::io::Result<OwnershipScan> {
    let mut sources = Vec::new();
    for rel in GOVERNED_FILES {
        sources.push((rel.to_string(), std::fs::read_to_string(root.join(rel))?));
    }
    Ok(analyze(&sources))
}

/// Render findings for humans, one per line.
pub fn describe(findings: &[OwnershipFinding]) -> String {
    let mut s = String::new();
    for f in findings {
        s.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace_root;

    fn real_sources() -> Vec<(String, String)> {
        GOVERNED_FILES
            .iter()
            .map(|rel| {
                let text = std::fs::read_to_string(workspace_root().join(rel))
                    .expect("governed file exists");
                (rel.to_string(), text)
            })
            .collect()
    }

    #[test]
    fn the_shipped_engine_has_no_findings() {
        let scan = analyze(&real_sources());
        assert_eq!(scan.files, GOVERNED_FILES.len());
        assert!(
            scan.findings.is_empty(),
            "partition violations:\n{}",
            describe(&scan.findings)
        );
    }

    #[test]
    fn the_access_map_covers_the_worker_and_the_guide() {
        let scan = analyze(&real_sources());
        let worker = scan.access.get("CampaignWorker").expect("worker mapped");
        let guide = scan.access.get("CampaignGuide").expect("guide mapped");
        assert!(worker.len() >= 15, "worker fields: {}", worker.len());
        assert!(guide.len() >= 10, "guide fields: {}", guide.len());
        // The engine really does read and write its own state…
        assert!(worker.values().any(|a| a.writes > 0));
        assert!(worker.values().any(|a| a.reads > 0));
        // …and the guide really does reach workers through the barrier
        // path (republish, fault strikes, drain marks).
        assert!(
            scan.barrier_touched_fields("CampaignWorker") >= 3,
            "barrier-touched: {}",
            scan.barrier_touched_fields("CampaignWorker")
        );
        // Guide-plane state is never barrier-path state.
        assert!(guide.values().all(|a| a.barrier == 0));
        // The load test's sampler is guide state that reads Zbox and link
        // state at barriers.
        let sampler = guide.get("sampler").expect("sampler mapped");
        assert!(sampler.reads > 0, "sampler: {sampler:?}");
        for field in ["zboxes", "net"] {
            assert!(worker[field].barrier > 0, "{field}: {:?}", worker[field]);
        }
    }

    /// Run the lint with `epoch.rs` (the first governed file) doctored by
    /// `mutate`.
    fn seeded(mutate: impl Fn(&mut String)) -> OwnershipScan {
        let mut sources = real_sources();
        mutate(&mut sources[0].1);
        analyze(&sources)
    }

    #[test]
    fn a_cross_region_write_is_flagged() {
        let scan = seeded(|epoch| {
            // A worker reaching into a peer region through the control.
            let anchor = "Ev::DropNotice { tag } => self.retry_or_poison(at, tag, out),";
            assert!(epoch.contains(anchor), "anchor drifted");
            *epoch = epoch.replace(
                anchor,
                "Ev::DropNotice { tag } => { ctl.worker_mut(0).issued[0] += 1; \
                 self.retry_or_poison(at, tag, out) },",
            );
        });
        assert!(
            scan.findings
                .iter()
                .any(|f| f.rule == "worker-touches-control"),
            "got:\n{}",
            describe(&scan.findings)
        );
    }

    #[test]
    fn a_guide_state_read_inside_a_worker_is_flagged() {
        let scan = seeded(|epoch| {
            let anchor = "Ev::Inject { cpu } => self.top_up(at, cpu, out),";
            assert!(epoch.contains(anchor), "anchor drifted");
            *epoch = epoch.replace(
                anchor,
                "Ev::Inject { cpu } => { let _skip = self.plan_idx > 0; \
                 self.top_up(at, cpu, out) },",
            );
        });
        let hit = scan
            .findings
            .iter()
            .find(|f| f.rule == "guide-state-in-worker")
            .unwrap_or_else(|| panic!("not flagged:\n{}", describe(&scan.findings)));
        assert!(hit.message.contains("plan_idx"), "{}", hit.message);
    }

    #[test]
    fn an_unmerged_shared_accumulator_is_flagged() {
        let scan = seeded(|epoch| {
            let anchor = "pub(crate) obs: Option<Box<ObsAcc>>,";
            assert!(epoch.contains(anchor), "anchor drifted");
            *epoch = epoch.replace(
                anchor,
                "pub(crate) obs: Option<Box<ObsAcc>>,\n    \
                 pub(crate) totals: Arc<Mutex<u64>>,",
            );
        });
        let hit = scan
            .findings
            .iter()
            .find(|f| f.rule == "shared-accumulator-field")
            .unwrap_or_else(|| panic!("not flagged:\n{}", describe(&scan.findings)));
        assert!(hit.message.contains("totals"), "{}", hit.message);
    }

    #[test]
    fn an_ungated_worker_mutation_is_flagged() {
        let scan = seeded(|epoch| {
            // A guide method that takes raw workers instead of the control.
            let anchor = "impl CampaignGuide {";
            assert!(epoch.contains(anchor), "anchor drifted");
            *epoch = epoch.replace(
                anchor,
                "impl CampaignGuide {\n    \
                 fn sneak(&mut self, raw: &mut RawSlots) { \
                 raw.worker_mut(0).issued[0] += 1; }\n",
            );
        });
        assert!(
            scan.findings
                .iter()
                .any(|f| f.rule == "ungated-worker-mutation"),
            "got:\n{}",
            describe(&scan.findings)
        );
    }

    #[test]
    fn a_sampler_read_inside_a_load_test_worker_is_flagged() {
        let scan = seeded(|epoch| {
            // A worker peeking at the guide's load-test sampler mid-epoch.
            let anchor = "Ev::LinkFree { link } => self.net.handle_link_free(at, link, out),";
            assert!(epoch.contains(anchor), "anchor drifted");
            *epoch = epoch.replace(
                anchor,
                "Ev::LinkFree { link } => { let _n = self.sampler.is_some(); \
                 self.net.handle_link_free(at, link, out) },",
            );
        });
        let hit = scan
            .findings
            .iter()
            .find(|f| f.rule == "guide-state-in-worker")
            .unwrap_or_else(|| panic!("not flagged:\n{}", describe(&scan.findings)));
        assert!(hit.file.ends_with("epoch.rs"), "{}", hit.file);
        assert!(hit.message.contains("sampler"), "{}", hit.message);
    }

    #[test]
    fn a_forged_outbox_is_flagged() {
        let scan = seeded(|epoch| {
            epoch.push_str("\nfn forge() { let _o = Outbox::new(0); }\n");
        });
        assert!(
            scan.findings.iter().any(|f| f.rule == "outbox-forged"),
            "got:\n{}",
            describe(&scan.findings)
        );
    }

    #[test]
    fn neutralize_blanks_strings_and_comments_but_keeps_structure() {
        let src = "fn a() { // brace in comment {\n  let s = \"fmt {x}\"; /* { */ }\n";
        let clean = neutralize(src);
        assert_eq!(clean.matches('\n').count(), src.matches('\n').count());
        assert!(!clean.contains("fmt"));
        assert!(!clean.contains("brace"));
        assert_eq!(
            clean.matches('{').count(),
            1,
            "only the real brace survives: {clean:?}"
        );
        // Lifetimes survive, char literals are blanked.
        let lt = neutralize("fn b<'a>(x: &'a str) { let c = 'y'; }");
        assert!(lt.contains("'a"));
        assert!(!lt.contains('y'));
    }

    #[test]
    fn impl_headers_split_trait_and_target_through_generics() {
        let items = parse_items(&neutralize(
            "impl<T: Topology + Clone> EpochGuide<CampaignWorker<T>>\n    \
             for CampaignGuide<T>\n{\n    fn next_barrier(&mut self) -> Option<SimTime> { None }\n}\n",
        ));
        let Item::Impl {
            trait_name,
            target,
            methods,
        } = &items[0]
        else {
            panic!("expected impl, got {items:?}");
        };
        assert_eq!(trait_name.as_deref(), Some("EpochGuide"));
        assert_eq!(target, "CampaignGuide");
        assert_eq!(methods.len(), 1);
        assert_eq!(methods[0].0, "next_barrier");
    }
}
