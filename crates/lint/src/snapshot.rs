//! The snapshot-drift pass: every field of every type that implements
//! `save_state`/`restore_state` must be referenced in *both* methods.
//!
//! The checkpoint/restore subsystem serializes whole structs field by
//! field, with no `..` rest patterns, precisely so that adding a field
//! without checkpointing it is visible. This pass turns that convention
//! into an enforced rule: a new field is a lint failure until it is either
//! written+read by the snapshot methods or exempted with
//! `// lint: allow(snapshot-drift, <why it is derived or scratch>)` on its
//! declaration line.
//!
//! Method lookup is crate-scoped: a struct's `save_state`/`restore_state`
//! may live in another file of the same crate (`impl` blocks are matched
//! to the type by name).

use crate::parser::idents_in;
use crate::source::SourceFile;
use crate::Finding;

/// The snapshot method pair whose coverage is enforced.
const SAVE: &str = "save_state";
const RESTORE: &str = "restore_state";

/// Runs the snapshot-drift pass over the whole workspace (cross-file,
/// crate-scoped method resolution).
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        for s in &file.parsed.structs {
            if s.fields.is_empty() {
                continue;
            }
            let save = find_method(files, file, &s.name, SAVE);
            let restore = find_method(files, file, &s.name, RESTORE);
            let (Some(save), Some(restore)) = (save, restore) else {
                continue; // not a snapshotted type
            };
            for field in &s.fields {
                let in_save = body_mentions(save, &field.name);
                let in_restore = body_mentions(restore, &field.name);
                if in_save && in_restore {
                    continue;
                }
                if file.allowed(field.line, "snapshot-drift") {
                    continue;
                }
                let missing = match (in_save, in_restore) {
                    (false, false) => "save_state and restore_state",
                    (false, true) => "save_state",
                    (true, false) => "restore_state",
                    (true, true) => unreachable!(),
                };
                out.push(Finding {
                    file: file.rel_path.clone(),
                    line: field.line,
                    rule: "snapshot-drift".to_owned(),
                    message: format!(
                        "field `{}` of `{}` is not referenced in {missing} — checkpoint the new state (crash-consistency contract) or annotate it with lint: allow(snapshot-drift, <why it is derived or scratch>)",
                        field.name, s.name
                    ),
                });
            }
        }
    }
    out
}

/// The crate prefix (`crates/<name>/`) of a repo-relative path, or the
/// whole path when it does not follow the workspace layout.
fn crate_prefix(rel_path: &str) -> &str {
    let mut slashes = 0usize;
    for (i, b) in rel_path.bytes().enumerate() {
        if b == b'/' {
            slashes += 1;
            if slashes == 2 {
                return &rel_path[..=i];
            }
        }
    }
    rel_path
}

/// Finds `Type::method` (with a body) in the struct's own file first, then
/// anywhere else in the same crate.
fn find_method<'a>(
    files: &'a [SourceFile],
    home: &'a SourceFile,
    type_name: &str,
    method: &str,
) -> Option<(&'a SourceFile, (usize, usize))> {
    let pick = |f: &'a SourceFile| {
        f.parsed
            .methods_of(type_name)
            .find(|m| m.name == method && m.body.is_some())
            .and_then(|m| m.body)
            .map(|b| (f, b))
    };
    if let Some(found) = pick(home) {
        return Some(found);
    }
    let prefix = crate_prefix(&home.rel_path);
    files
        .iter()
        .filter(|f| f.rel_path != home.rel_path && f.rel_path.starts_with(prefix))
        .find_map(pick)
}

/// Whether a method body mentions an identifier (field access, binding,
/// struct-literal key — any mention counts as coverage).
fn body_mentions((file, body): (&SourceFile, (usize, usize)), name: &str) -> bool {
    idents_in(&file.tokens, body).any(|id| id == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(p, s)| SourceFile::new((*p).to_owned(), s))
            .collect();
        check(&files)
    }

    const COVERED: &str = "pub struct Bank { open_row: u64, busy_until: u64 }\nimpl Bank {\n    pub fn save_state(&self, w: &mut W) { w.u64(self.open_row); w.u64(self.busy_until); }\n    pub fn restore_state(&mut self, r: &mut R) { self.open_row = r.u64(); self.busy_until = r.u64(); }\n}\n";

    #[test]
    fn covered_struct_is_clean() {
        assert!(findings(&[("crates/a/src/x.rs", COVERED)]).is_empty());
    }

    #[test]
    fn uncheckpointed_field_is_flagged_at_its_line() {
        let src = "pub struct Bank {\n    open_row: u64,\n    open_cycles: u64,\n}\nimpl Bank {\n    fn save_state(&self, w: &mut W) { w.u64(self.open_row); }\n    fn restore_state(&mut self, r: &mut R) { self.open_row = r.u64(); }\n}\n";
        let f = findings(&[("crates/a/src/x.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("`open_cycles`"));
        assert!(f[0].message.contains("save_state and restore_state"));
    }

    #[test]
    fn field_missing_from_only_one_side_names_that_side() {
        let src = "pub struct S { a: u64 }\nimpl S {\n    fn save_state(&self, w: &mut W) { w.u64(self.a); }\n    fn restore_state(&mut self, _r: &mut R) {}\n}\n";
        let f = findings(&[("crates/a/src/x.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("not referenced in restore_state"));
    }

    #[test]
    fn allow_on_the_field_line_exempts_scratch_state() {
        let src = "pub struct S {\n    a: u64,\n    // lint: allow(snapshot-drift, rebuilt from a on restore)\n    cache: u64,\n}\nimpl S {\n    fn save_state(&self, w: &mut W) { w.u64(self.a); }\n    fn restore_state(&mut self, r: &mut R) { self.a = r.u64(); }\n}\n";
        assert!(findings(&[("crates/a/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn types_without_the_method_pair_are_skipped() {
        let src = "pub struct Plain { a: u64 }\npub struct HalfA { b: u64 }\nimpl HalfA { fn save_state(&self, w: &mut W) {} }\n";
        assert!(findings(&[("crates/a/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn methods_in_a_sibling_file_of_the_same_crate_are_found() {
        let def = "pub struct S { a: u64, b: u64 }\n";
        let imp = "impl S {\n    fn save_state(&self, w: &mut W) { w.u64(self.a); }\n    fn restore_state(&mut self, r: &mut R) { self.a = r.u64(); }\n}\n";
        let f = findings(&[("crates/a/src/def.rs", def), ("crates/a/src/imp.rs", imp)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].file, "crates/a/src/def.rs");
        assert!(f[0].message.contains("`b`"));
    }

    #[test]
    fn same_name_type_in_another_crate_does_not_pair() {
        let here = "pub struct S { a: u64 }\n";
        let other =
            "pub struct S { z: u64 }\nimpl S {\n    fn save_state(&self, w: &mut W) { w.u64(self.z); }\n    fn restore_state(&mut self, r: &mut R) { self.z = r.u64(); }\n}\n";
        let f = findings(&[("crates/a/src/x.rs", here), ("crates/b/src/y.rs", other)]);
        assert!(f.is_empty(), "{f:?}");
    }
}
