//! Workspace determinism lint, `-D` semantics: any unexplained finding is
//! fatal. Run as `cargo run -p verify --bin lint`.

use verify::lint;

const USAGE: &str = "usage: lint (no arguments: it scans the whole workspace)";

/// Any argument is a usage error.
fn parse(args: &[String]) -> Result<(), String> {
    args.first()
        .map_or(Ok(()), |arg| Err(format!("unexpected argument {arg:?}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(why) = parse(&args) {
        eprintln!("lint: {why}\n{USAGE}");
        std::process::exit(2);
    }
    let root = verify::workspace_root();
    let out = match lint::scan_workspace(&root) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("lint: cannot scan {}: {e}", root.display());
            std::process::exit(2);
        }
    };
    let rules = lint::rules();
    for f in &out.findings {
        let advice = rules
            .iter()
            .find(|r| r.name == f.rule)
            .map(|r| r.advice)
            .unwrap_or_default();
        println!(
            "{}:{}: [{}] {}\n    note: {advice}\n    note: silence an audited exception with `// lint-allow: {}`",
            f.file.display(),
            f.line,
            f.rule,
            f.excerpt,
            f.rule,
        );
    }
    println!(
        "determinism lint: {} file(s) scanned, {} allowed exception(s), {} unexplained finding(s)",
        out.files,
        out.allowed,
        out.findings.len()
    );
    if !out.findings.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn takes_no_arguments() {
        assert_eq!(super::parse(&[]), Ok(()));
        let why = "unexpected argument \"--bogus\"".to_string();
        assert_eq!(super::parse(&["--bogus".to_string()]), Err(why));
    }
}
