//! The `iroram-lint` binary: runs the determinism, panic-ratchet,
//! panic-reach and thread-order passes over the workspace and prints
//! machine-readable findings.
//! Exit 0 = clean, 1 = findings, 2 = usage or I/O error.

use std::path::PathBuf;

const USAGE: &str = "\
usage: iroram-lint [--root DIR] [--fix-ratchet] [--format text|json]
  --root DIR     workspace root (default: walk up from the current directory)
  --fix-ratchet  rewrite lint-ratchet.toml from the current hot-path and
                 reachability counts
  --format FMT   `text` (default): one `file:line rule message` per line;
                 `json`: a stable document with files_scanned and findings
Exemptions: `// lint: allow(<rule>, <reason>)` on the flagged line, the line
above it, or the statement starting there (rules: determinism, panic,
thread-order; the reason is mandatory).";

enum Format {
    Text,
    Json,
}

fn main() {
    let mut root: Option<PathBuf> = None;
    let mut fix_ratchet = false;
    let mut format = Format::Text;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fix-ratchet" => fix_ratchet = true,
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => root = Some(PathBuf::from(dir)),
                    None => die(2, "--root requires a directory"),
                }
            }
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("text") => format = Format::Text,
                    Some("json") => format = Format::Json,
                    Some(other) => die(2, &format!("unknown format `{other}`")),
                    None => die(2, "--format requires `text` or `json`"),
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(2, &format!("unrecognized argument `{other}`")),
        }
        i += 1;
    }
    let root = root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| iroram_lint::find_root(&d))
    });
    let Some(root) = root else {
        die(2, "no workspace root found (pass --root DIR)");
    };
    match iroram_lint::run(&root, fix_ratchet) {
        Ok(outcome) => {
            match format {
                Format::Text => {
                    for f in &outcome.findings {
                        println!("{f}");
                    }
                }
                Format::Json => print!("{}", iroram_lint::json::to_json(&outcome)),
            }
            eprintln!(
                "iroram-lint: {} file(s) scanned, {} finding(s){}",
                outcome.files_scanned,
                outcome.findings.len(),
                if fix_ratchet {
                    " (ratchet rewritten)"
                } else {
                    ""
                }
            );
            std::process::exit(i32::from(!outcome.findings.is_empty()));
        }
        Err(e) => die(2, &e),
    }
}

fn die(code: i32, msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(code);
}
