//! ROM serialization acceptance tests.
//!
//! The format contract (`pmor::rom`): save → load reproduces the model
//! **bitwise** — `transfer()` at arbitrary (parameter, frequency) points
//! returns bit-for-bit identical values — and corrupted or
//! unknown-version files are rejected instead of misread. Damage that
//! carries a valid checksum (a resealed file, as any `LoadRom` client
//! can send) must be rejected by the parser itself, without a panic
//! and without a reservation the payload cannot back.

use pmor::reduce::fnv1a_bytes;
use pmor::rom::{from_bytes, to_bytes, ROM_FORMAT_VERSION, ROM_MAGIC};
use pmor::{reducer_by_name, ParametricRom, PmorError};
use pmor_circuits::generators::{
    clock_tree, rc_mesh, rc_random, rlc_bus, ClockTreeConfig, RcMeshConfig, RcRandomConfig,
    RlcBusConfig,
};
use pmor_circuits::ParametricSystem;
use pmor_num::Complex64;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temp_dir::TempDir;

#[path = "support/temp_dir.rs"]
mod temp_dir;

/// Small instances of every generator family.
fn workloads() -> Vec<(&'static str, ParametricSystem)> {
    vec![
        (
            "clock_tree",
            clock_tree(&ClockTreeConfig {
                num_nodes: 40,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            "rc_random",
            rc_random(&RcRandomConfig {
                num_nodes: 60,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            "rlc_bus",
            rlc_bus(&RlcBusConfig {
                segments: 10,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            "rc_mesh",
            rc_mesh(&RcMeshConfig {
                rows: 5,
                cols: 5,
                ..Default::default()
            })
            .assemble(),
        ),
    ]
}

/// Asserts `transfer()` agrees bit-for-bit between two ROMs at random
/// (parameter, frequency) points.
fn assert_transfer_bitwise_identical(a: &ParametricRom, b: &ParametricRom, seed: u64, what: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    for trial in 0..25 {
        let p: Vec<f64> = (0..a.num_params())
            .map(|_| rng.gen_range(-0.3..0.3))
            .collect();
        let f = 10f64.powf(rng.gen_range(6.0..10.5));
        let s = Complex64::jw(2.0 * std::f64::consts::PI * f);
        let ha = a.transfer(&p, s).unwrap();
        let hb = b.transfer(&p, s).unwrap();
        for r in 0..ha.nrows() {
            for c in 0..ha.ncols() {
                assert_eq!(
                    ha[(r, c)].re.to_bits(),
                    hb[(r, c)].re.to_bits(),
                    "{what}: trial {trial} re({r},{c}) differs at p={p:?}, f={f:.3e}"
                );
                assert_eq!(
                    ha[(r, c)].im.to_bits(),
                    hb[(r, c)].im.to_bits(),
                    "{what}: trial {trial} im({r},{c}) differs at p={p:?}, f={f:.3e}"
                );
            }
        }
    }
}

#[test]
fn round_trip_is_bitwise_for_every_generator_and_method() {
    let dir = TempDir::new("rom_rt");
    for (wname, sys) in workloads() {
        for method in ["prima", "lowrank"] {
            let rom = reducer_by_name(method, &sys)
                .unwrap()
                .reduce_once(&sys)
                .unwrap();
            let path = dir.join(format!("{wname}_{method}.rom"));
            pmor::rom::save(&rom, &path).unwrap();
            let back = pmor::rom::load(&path).unwrap();
            assert_eq!(back.size(), rom.size());
            assert_eq!(back.num_params(), rom.num_params());
            assert_eq!(back.num_inputs(), rom.num_inputs());
            assert_eq!(back.num_outputs(), rom.num_outputs());
            assert_transfer_bitwise_identical(
                &rom,
                &back,
                0xBEEF ^ rom.size() as u64,
                &format!("{wname}/{method}"),
            );
        }
    }
}

#[test]
fn byte_level_round_trip_preserves_exact_payload() {
    let sys = workloads().remove(0).1;
    let rom = reducer_by_name("lowrank", &sys)
        .unwrap()
        .reduce_once(&sys)
        .unwrap();
    let bytes = to_bytes(&rom);
    assert_eq!(&bytes[..8], &ROM_MAGIC);
    let back = from_bytes(&bytes).unwrap();
    // Serializing the reloaded model reproduces the identical byte stream.
    assert_eq!(to_bytes(&back), bytes);
}

/// A ROM file around `payload` with a matching checksum, so damage in
/// the payload gets past the checksum into the parser.
fn reseal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::from(ROM_MAGIC);
    out.extend_from_slice(&ROM_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a_bytes(payload).to_le_bytes());
    out
}

/// Byte offsets (into the payload) of every header and matrix
/// dimension word: the five header words, then each matrix's
/// `nrows`/`ncols` pair, walked by the stored dimensions.
fn structure_words(payload: &[u8]) -> Vec<usize> {
    let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize;
    let mut offsets: Vec<usize> = (0..5).map(|i| 8 * i).collect();
    let mut at = 40;
    while at < payload.len() {
        offsets.extend([at, at + 8]);
        at += 16 + 8 * word(at) * word(at + 8);
    }
    assert_eq!(at, payload.len(), "walked past the payload");
    offsets
}

#[test]
fn corrupted_bytes_are_rejected_everywhere() {
    // Property-style: flipping any single byte of the payload must be
    // detected (checksum), and truncating anywhere must fail cleanly.
    // Resealed damage — a flipped bit in a header or dimension word, or
    // a truncated payload, under a recomputed checksum — must be
    // rejected by the parser itself.
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 12,
        ..Default::default()
    })
    .assemble();
    let rom = reducer_by_name("prima", &sys)
        .unwrap()
        .reduce_once(&sys)
        .unwrap();
    let good = to_bytes(&rom);
    let mut runner = proptest::TestRunner::new(proptest::ProptestConfig::with_cases(64));
    let len = good.len();
    let payload = &good[12..len - 8];
    let words = structure_words(payload);
    runner.run(|rng| {
        // Flip one payload byte (past magic+version, before the checksum).
        let at = rng.gen_range(12..len - 8);
        let mut bad = good.clone();
        bad[at] ^= 1 << rng.gen_range(0..8usize);
        prop_assert!(
            from_bytes(&bad).is_err(),
            "flipped byte {at} went undetected"
        );
        // Truncate at an arbitrary point.
        let cut = rng.gen_range(0..len);
        prop_assert!(
            from_bytes(&good[..cut]).is_err(),
            "truncation at {cut} accepted"
        );
        // Flip one bit of a header or dimension word, then reseal.
        let at = words[rng.gen_range(0..words.len())];
        let bit = rng.gen_range(0..64usize);
        let mut bad = payload.to_vec();
        let word = u64::from_le_bytes(bad[at..at + 8].try_into().unwrap()) ^ (1 << bit);
        bad[at..at + 8].copy_from_slice(&word.to_le_bytes());
        prop_assert!(
            from_bytes(&reseal(&bad)).is_err(),
            "resealed bit {bit} flip of the word at payload byte {at} accepted"
        );
        // Truncate the payload, then reseal.
        let cut = rng.gen_range(0..payload.len());
        prop_assert!(
            from_bytes(&reseal(&payload[..cut])).is_err(),
            "resealed payload truncated to {cut} bytes accepted"
        );
        Ok(())
    });
    // The pristine bytes still load, and so does their reseal.
    assert!(from_bytes(&good).is_ok());
    assert_eq!(reseal(payload), good);
}

#[test]
fn parameter_count_beyond_the_payload_is_rejected_before_reserving() {
    // 92 bytes with a valid checksum: header `[0, 0, 2^24, 0, 0]` (size,
    // full dim, #params, #inputs, #outputs) and two empty matrices.
    // 2^24 passes the per-dimension plausibility check, but its 2^25
    // matrix headers cannot fit in a 72-byte payload.
    let mut payload = Vec::new();
    for word in [0, 0, 1u64 << 24, 0, 0, 0, 0, 0, 0] {
        payload.extend_from_slice(&word.to_le_bytes());
    }
    let bytes = reseal(&payload);
    assert_eq!(bytes.len(), 92);
    match from_bytes(&bytes) {
        Err(PmorError::Invalid(msg)) => {
            assert!(msg.contains("parameter count 16777216"), "{msg}")
        }
        other => panic!("2^24 parameters accepted: {other:?}"),
    }
}

#[test]
fn old_and_future_format_versions_are_rejected() {
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 12,
        ..Default::default()
    })
    .assemble();
    let rom = reducer_by_name("prima", &sys)
        .unwrap()
        .reduce_once(&sys)
        .unwrap();
    let good = to_bytes(&rom);
    for version in [0u32, ROM_FORMAT_VERSION + 1, u32::MAX] {
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&version.to_le_bytes());
        match from_bytes(&bad) {
            Err(PmorError::Invalid(msg)) => {
                assert!(msg.contains("version"), "version {version}: {msg}")
            }
            other => panic!("version {version} accepted: {other:?}"),
        }
    }
}

#[test]
fn foreign_files_are_rejected() {
    assert!(from_bytes(b"").is_err());
    assert!(from_bytes(b"not a rom at all, definitely long enough to pass length checks").is_err());
    let mut almost = Vec::from(ROM_MAGIC);
    almost.extend_from_slice(&ROM_FORMAT_VERSION.to_le_bytes());
    almost.extend_from_slice(&[0u8; 8]); // checksum of an empty payload won't match
    assert!(from_bytes(&almost).is_err());
}
