//! Every calibration number cites the paper (DESIGN.md §8): the one
//! domain rule neither clippy nor a grep can state.

use std::path::Path;

/// `§`, `paper`, or `Table`/`Fig`/`Figure` followed by its number.
fn cites_the_paper(comment: &str) -> bool {
    let lower = comment.to_lowercase();
    let numbered = |marker| {
        lower.split(marker).skip(1).any(|after: &str| {
            let number = after.trim_start_matches(|c: char| c.is_alphabetic() || ". ".contains(c));
            number.starts_with(|c: char| c.is_ascii_digit())
        })
    };
    lower.contains('§') || lower.contains("paper") || numbered("table") || numbered("fig")
}

/// The top-level `const` and `fn` items of `code` that hold a numeric
/// literal and have no attached or inner comment citing the paper, as
/// `(line, item)`. Test code (from the first `#[cfg(test)]`) is exempt.
fn uncited(code: &str) -> Vec<(usize, String)> {
    let code = code.split("#[cfg(test)]").next().unwrap_or("");
    let lines: Vec<&str> = code.lines().collect();
    let mut out = Vec::new();
    for (start, line) in lines.iter().enumerate() {
        let item = line.strip_prefix("pub ").unwrap_or(line);
        let is_fn = item.starts_with("fn ") || item.starts_with("const fn ");
        if !is_fn && !item.starts_with("const ") {
            continue;
        }
        let closes = |l: &&str| if is_fn { *l == "}" } else { l.ends_with(';') };
        let len = lines[start..].iter().position(closes).unwrap() + 1;
        let attached = lines[..start].iter().rev();
        let mut comments: String = attached
            .take_while(|l| l.starts_with("//"))
            .copied()
            .collect();
        let mut body = String::new();
        for l in &lines[start..start + len] {
            let (code, comment) = l.split_once("//").unwrap_or((l, ""));
            body += code;
            comments += comment;
        }
        let starts_number =
            |w: &[u8]| w[1].is_ascii_digit() && !w[0].is_ascii_alphanumeric() && w[0] != b'_';
        if body.as_bytes().windows(2).any(starts_number) && !cites_the_paper(&comments) {
            out.push((start + 1, item.to_string()));
        }
    }
    out
}

#[test]
fn every_number_in_a_params_file_cites_the_paper() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut checked = 0;
    for entry in std::fs::read_dir(crates).unwrap() {
        let path = entry.unwrap().path().join("src/params.rs");
        if let Ok(code) = std::fs::read_to_string(&path) {
            assert_eq!(uncited(&code), [], "{}", path.display());
            checked += 1;
        }
    }
    assert_eq!(checked, 5, "access, disk, drive, mech, olfs");
}

#[test]
fn the_rule_bites() {
    let bare = "/// Bucket write latency in milliseconds.\npub const BUCKET_WRITE_MS: u64 = 2;\n";
    assert_eq!(uncited(bare).len(), 1);
    assert_eq!(uncited(&bare.replace("milliseconds", "ms (Fig. 7)")), []);
    assert_eq!(
        uncited("pub fn f() -> u64 {\n    // §4.3\n    2048\n}\n"),
        []
    );
    assert_eq!(
        uncited("const N: u64 = OTHER_1;\n#[cfg(test)]\nconst T: u8 = 1;\n"),
        []
    );
}
