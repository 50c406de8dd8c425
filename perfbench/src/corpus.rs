//! Benchmark inputs: `.dds` texts read from the repository, ordered by seed.

use dds_gen::FuzzRng;
use std::path::Path;

/// One input spec.
#[derive(Clone, Debug)]
pub struct Input {
    /// File stem.
    pub id: String,
    /// The `.dds` text.
    pub text: String,
}

/// The `.dds` files of `dir` whose stem starts with one of `prefixes`, in
/// file-name order.
pub fn read_dir(dir: &str, prefixes: &[&str]) -> Result<Vec<Input>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    let mut out = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("{dir}: {e}"))?.path();
        if path.extension().is_none_or(|e| e != "dds") {
            continue;
        }
        let id = stem(&path);
        if prefixes.iter().any(|p| id.starts_with(p)) {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            out.push(Input { id, text });
        }
    }
    out.sort_by(|a, b| a.id.cmp(&b.id));
    if out.is_empty() {
        return Err(format!("{dir}: no inputs matching {prefixes:?}"));
    }
    Ok(out)
}

fn stem(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Fisher–Yates shuffle driven by the workload seed.
pub fn shuffle<T>(xs: &mut [T], rng: &mut FuzzRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i + 1));
    }
}

/// The outcome a spec stamps with its first `expect` line.
pub fn stamped_expect(text: &str) -> Option<&str> {
    text.lines()
        .find_map(|l| l.trim().strip_prefix("expect "))
        .map(str::trim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut FuzzRng::new(5));
        shuffle(&mut b, &mut FuzzRng::new(5));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn stamp_is_the_first_expect_line() {
        let text = "system s\nproperty p {\n  accept a\n  expect nonempty\n}\n";
        assert_eq!(stamped_expect(text), Some("nonempty"));
        assert_eq!(stamped_expect("system s\n"), None);
    }
}
