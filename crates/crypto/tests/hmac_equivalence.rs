//! Property tests: the midstate-cached HMAC fast path ([`HmacKey`], and
//! [`HmacPrf`] which routes through it) is
//! bit-identical to the reference one-shot `hmac_sha1` on arbitrary keys
//! and messages — including empty inputs, block-boundary lengths and
//! larger-than-block keys (which RFC 2104 pre-hashes).

use proptest::prelude::*;
use roar_crypto::hmac::{hmac_sha1, HmacKey};
use roar_crypto::prf::{HmacPrf, Prf};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cached_key_equals_reference(
        key in proptest::collection::vec(any::<u8>(), 0..100),
        msg in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        prop_assert_eq!(HmacKey::new(&key).mac(&msg), hmac_sha1(&key, &msg));
    }

    #[test]
    fn prf_equals_reference(
        key in proptest::collection::vec(any::<u8>(), 0..80),
        msg in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        prop_assert_eq!(HmacPrf::new(&key).eval(&msg), hmac_sha1(&key, &msg));
    }

    #[test]
    fn mac_u64_equals_reference_prefix(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        msg: u64,
    ) {
        let bytes = msg.to_be_bytes();
        let reference = hmac_sha1(&key, &bytes);
        let want = u64::from_be_bytes(reference[..8].try_into().unwrap());
        prop_assert_eq!(HmacKey::new(&key).mac_u64(&bytes), want);
    }
}

/// Deterministic sweep of every interesting length pairing — the
/// block-boundary cases that property sampling might miss.
#[test]
fn exhaustive_boundary_sweep() {
    let key_lens = [0usize, 1, 19, 20, 21, 55, 56, 63, 64, 65, 80, 128];
    let msg_lens = [0usize, 1, 8, 20, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128];
    for &kl in &key_lens {
        let key: Vec<u8> = (0..kl)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(3))
            .collect();
        let hk = HmacKey::new(&key);
        for &ml in &msg_lens {
            let msg: Vec<u8> = (0..ml).map(|i| (i as u8).wrapping_mul(11)).collect();
            assert_eq!(
                hk.mac(&msg),
                hmac_sha1(&key, &msg),
                "key {kl} B / msg {ml} B"
            );
        }
    }
}
