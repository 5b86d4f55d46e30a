//! Prints, per workspace crate, the lines of its `src/` Rust files that
//! lie outside every `#[cfg(test)]` item, next to all of their lines,
//! as a Markdown table. Progress on the code base is counted in
//! deleted non-test lines; this is the one count.
//!
//! A `#[cfg(test)]` item runs from its attribute — with the doc
//! comments and attributes directly above it — to the `;`, `,` or
//! closing `}` that ends it, so a test-only `const` in mid-file and a
//! trailing `mod tests` are both left out. Every other line counts,
//! blank and comment lines included.
//!
//! ```sh
//! cargo run --release -p randcast_bench --bin nontest_lines            # this workspace
//! cargo run --release -p randcast_bench --bin nontest_lines -- ../old  # another checkout
//! ```

use std::path::{Path, PathBuf};

fn main() {
    let root = std::env::args().nth(1).map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")),
        PathBuf::from,
    );
    let mut crates: Vec<(String, PathBuf)> = std::fs::read_dir(root.join("crates"))
        .unwrap_or_else(|e| panic!("cannot read {}/crates: {e}", root.display()))
        .map(|entry| {
            let path = entry.expect("readable dir entry").path();
            let name = path.file_name().expect("a crate dir name");
            (name.to_string_lossy().into_owned(), path.join("src"))
        })
        .filter(|(_, src)| src.is_dir())
        .collect();
    crates.sort();
    crates.push(("randcast (root)".into(), root.join("src")));

    println!("| crate | non-test lines | all lines |");
    println!("|---|---:|---:|");
    let (mut nontest, mut all) = (0, 0);
    for (name, src) in crates {
        let (n, a) = rust_files(&src)
            .iter()
            .map(|file| {
                let text = std::fs::read_to_string(file)
                    .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
                (nontest_lines(&text), text.lines().count())
            })
            .fold((0, 0), |(n, a), (fn_, fa)| (n + fn_, a + fa));
        println!("| {name} | {n} | {a} |");
        nontest += n;
        all += a;
    }
    println!("| **total** | **{nontest}** | **{all}** |");
}

/// Every `.rs` file under `dir`, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in
            std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        {
            let path = entry.expect("readable dir entry").path();
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The number of lines of `source` outside every `#[cfg(test)]` item.
fn nontest_lines(source: &str) -> usize {
    let lines: Vec<&str> = source.lines().collect();
    let mut test = vec![false; lines.len()];
    let tokens = tokens(source);
    let pattern = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut i = 0;
    while i + pattern.len() <= tokens.len() {
        if !tokens[i..i + pattern.len()]
            .iter()
            .map(|t| t.text)
            .eq(pattern)
        {
            i += 1;
            continue;
        }
        // Doc comments and attributes directly above belong to the item.
        let mut first = tokens[i].line;
        while first > 0 && {
            let above = lines[first - 1].trim_start();
            above.starts_with("///") || above.starts_with("#[")
        } {
            first -= 1;
        }
        // The item ends at a `;` outside every bracket, at the `}`
        // closing its first outer block, or just before a closer of the
        // enclosing block; a field, variant or arm also ends at a `,`
        // (an item's own commas sit in generics and `where` clauses).
        let mut depth = 0usize;
        let mut item = false;
        let mut last = tokens[i].line;
        i += pattern.len();
        while let Some(t) = tokens.get(i) {
            match t.text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if depth == 0 => break,
                ")" | "]" | "}" => depth -= 1,
                // Words opening an item or statement, whose `,`s never
                // end it.
                "fn" | "mod" | "impl" | "struct" | "enum" | "trait" | "union" | "const"
                | "static" | "use" | "type" | "extern" | "macro_rules" | "let"
                    if depth == 0 =>
                {
                    item = true;
                }
                _ => {}
            }
            last = t.line;
            i += 1;
            if depth == 0 && (matches!(t.text, ";" | "}") || t.text == "," && !item) {
                break;
            }
        }
        test[first..=last].fill(true);
    }
    test.iter().filter(|&&t| !t).count()
}

/// A punctuation or word token and its 0-based line.
struct Token<'s> {
    text: &'s str,
    line: usize,
}

/// The brackets, separators, `#` and words of Rust `source`, with
/// comments, string literals and character literals skipped.
fn tokens(source: &str) -> Vec<Token<'_>> {
    let bytes = source.as_bytes();
    let mut out = Vec::new();
    let (mut i, mut line) = (0, 0);
    // Skips to just past the closing `"` of a (possibly raw) string
    // whose body starts at `i`, counting lines; `hashes` is the raw
    // string's `#` count, `None` for an escaped string.
    let skip_string = |mut i: usize, line: &mut usize, hashes: Option<usize>| {
        while i < bytes.len() {
            match bytes[i] {
                b'\n' => *line += 1,
                b'\\' if hashes.is_none() => i += 1,
                b'"' => {
                    let h = hashes.unwrap_or(0);
                    if bytes[i + 1..]
                        .iter()
                        .take(h)
                        .filter(|&&b| b == b'#')
                        .count()
                        == h
                    {
                        return i + 1 + h;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i
    };
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut nest = 0usize;
                while i < bytes.len() {
                    if bytes[i..].starts_with(b"/*") {
                        nest += 1;
                        i += 2;
                    } else if bytes[i..].starts_with(b"*/") {
                        nest -= 1;
                        i += 2;
                        if nest == 0 {
                            break;
                        }
                    } else {
                        line += usize::from(bytes[i] == b'\n');
                        i += 1;
                    }
                }
            }
            b'"' => i = skip_string(i + 1, &mut line, None),
            b'\'' => {
                // A character literal (`'x'`, `'\n'`), else a lifetime.
                if bytes.get(i + 1) == Some(&b'\\') {
                    i += 2;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                } else {
                    let width = source[i + 1..].chars().next().map_or(1, char::len_utf8);
                    i += if bytes.get(i + 1 + width) == Some(&b'\'') {
                        width + 2
                    } else {
                        1
                    };
                }
            }
            b'#' | b'[' | b']' | b'(' | b')' | b'{' | b'}' | b';' | b',' => {
                out.push(Token {
                    text: &source[i..=i],
                    line,
                });
                i += 1;
            }
            _ if b.is_ascii_alphanumeric() || b == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &source[start..i];
                // Raw and byte string prefixes.
                let hashes = bytes[i..].iter().take_while(|&&b| b == b'#').count();
                match (word, bytes.get(i + hashes)) {
                    ("r" | "br", Some(b'"')) => {
                        i = skip_string(i + hashes + 1, &mut line, Some(hashes));
                    }
                    ("b", Some(b'"')) if hashes == 0 => {
                        i = skip_string(i + 1, &mut line, None);
                    }
                    _ => out.push(Token { text: word, line }),
                }
            }
            _ => i += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 21 lines: a test-only `const` (3 lines with its doc comment) in
    /// mid-file and a trailing `mod tests` (8 lines), around code whose
    /// strings, raw strings, characters and comments hold brackets and
    /// a decoy attribute.
    const FIXTURE: &str = r##"//! A module.
use std::fmt;

/// Lanes the tests run.
#[cfg(test)]
const MASKS: [u64; 2] = [1, { 2 }];

/// Not a test item: "#[cfg(test)]" in a string.
pub fn f(x: &str) -> &'static str {
    let _ = ('}', '{', "}\"{", r#"} "{"#); /* } { */
    "#[cfg(test)] mod decoy {"
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn t() {
        assert_eq!(f(""), "}");
    }
}
"##;

    #[test]
    fn leaves_out_a_mid_file_const_and_a_trailing_module() {
        assert_eq!(FIXTURE.lines().count(), 21);
        assert_eq!(nontest_lines(FIXTURE), 21 - 3 - 8);
    }

    #[test]
    fn counts_every_line_of_a_file_without_test_items() {
        let source = "fn a() {}\n\n// }\nfn b() -> [u8; 1] {\n    [0]\n}\n";
        assert_eq!(nontest_lines(source), 6);
        assert_eq!(nontest_lines(""), 0);
    }

    #[test]
    fn a_test_field_or_statement_ends_at_its_separator() {
        let source = "struct S {\n    a: u8,\n    #[cfg(test)]\n    b: u8,\n}\n\
                      fn g() {\n    #[cfg(test)]\n    let _x = 1;\n    h();\n}\n";
        assert_eq!(nontest_lines(source), 10 - 2 - 2);
        // A generic test function's commas do not end it.
        let source = "#[cfg(test)]\nfn f<A, B>(a: A, b: B)\nwhere\n    A: Copy,\n{\n}\nfn g() {}\n";
        assert_eq!(nontest_lines(source), 1);
    }
}
