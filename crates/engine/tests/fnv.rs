//! Known answers and composition for the workspace's one FNV-1a hash.

use dvs_engine::{fnv1a, fnv1a_str, DetRng, FNV_OFFSET};

/// Known-answer vectors for 64-bit FNV-1a (from the reference
/// specification): the empty string hashes to the offset basis, and "a" /
/// "foobar" to their published values.
#[test]
fn fnv1a_known_answers() {
    assert_eq!(fnv1a_str(FNV_OFFSET, ""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a_str(FNV_OFFSET, "a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a_str(FNV_OFFSET, "foobar"), 0x85944171f73967e8);
}

/// Folding a string byte-by-byte and via `fnv1a_str` must agree, and the
/// hash must compose: `H(xy) = fold(H(x), y)`.
#[test]
fn fnv1a_composes() {
    let mut rng = DetRng::new(0xF02B);
    for _ in 0..200 {
        let len = rng.below(24);
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let split = rng.below(len + 1);
        let whole = bytes.iter().fold(FNV_OFFSET, |h, &b| fnv1a(h, b));
        let prefix = bytes[..split].iter().fold(FNV_OFFSET, |h, &b| fnv1a(h, b));
        let resumed = bytes[split..].iter().fold(prefix, |h, &b| fnv1a(h, b));
        assert_eq!(whole, resumed);
    }
}
