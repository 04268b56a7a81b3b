//! The golden-vector checker shared by the corpora under `ci/` that pin
//! peer, disk and service frames.
//!
//! A corpus is a text file of `<name> <hex>` lines. [`check`] asserts
//! both directions against it: each value encodes to exactly the
//! recorded bytes, and the recorded bytes decode back to the value,
//! consuming all of them. With `REGEN_WIRE_VECTORS` set it rewrites the
//! corpus instead; review that diff as an interface change.

use bytes::Bytes;
use common::wire::Wire;
use std::collections::BTreeMap;

/// One named frame: its encoding and a check that bytes decode to it.
pub struct Vector {
    name: &'static str,
    bytes: Bytes,
    decodes_back: Box<dyn Fn(Bytes) -> bool>,
}

/// Pins `value` under `name`.
pub fn vector<T: Wire + PartialEq + 'static>(name: &'static str, value: T) -> Vector {
    Vector {
        name,
        bytes: value.to_bytes(),
        decodes_back: Box::new(move |mut raw| {
            T::decode(&mut raw).as_ref() == Ok(&value) && raw.is_empty()
        }),
    }
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

/// Checks `vectors` against the corpus at `path` (or rewrites it, headed
/// by the `#` comment lines in `header`, when `REGEN_WIRE_VECTORS` is
/// set).
pub fn check(path: &str, header: &str, vectors: Vec<Vector>) {
    if std::env::var_os("REGEN_WIRE_VECTORS").is_some() {
        let mut out = String::from(header);
        for v in &vectors {
            out.push_str(&format!("{} {}\n", v.name, hex(&v.bytes)));
        }
        std::fs::write(path, out).expect("write corpus");
        return;
    }

    let corpus = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run with REGEN_WIRE_VECTORS=1 to create)"));
    let mut recorded = BTreeMap::new();
    for line in corpus.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, hex) = line.split_once(' ').expect("corpus line: <name> <hex>");
        recorded.insert(name.to_string(), hex.trim().to_string());
    }

    for v in &vectors {
        let golden = recorded
            .remove(v.name)
            .unwrap_or_else(|| panic!("corpus is missing vector {}; regenerate", v.name));
        assert_eq!(
            hex(&v.bytes),
            golden,
            "frame {} no longer encodes to its golden bytes — \
             this is a wire compatibility break",
            v.name
        );
        let raw = Bytes::from(unhex(&golden).expect("corpus hex decodes"));
        assert!(
            (v.decodes_back)(raw),
            "golden bytes for {} no longer decode to the same frame",
            v.name
        );
    }
    assert!(
        recorded.is_empty(),
        "corpus has vectors with no matching frame (renamed or deleted?): {:?}",
        recorded.keys().collect::<Vec<_>>()
    );
}
