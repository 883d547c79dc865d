//! Seeded input generators. Every draw is `mix(key ^ salt(seed))`: seed 0
//! has salt 0, so the default seed reproduces the storm benches' own draws
//! exactly, and any other seed permutes them.

/// splitmix64 — the storm benches' deterministic draw and checksum mixer.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The key perturbation a seed applies to every draw.
pub fn salt(seed: u64) -> u64 {
    if seed == 0 {
        0
    } else {
        mix(seed ^ 0x5eed_5a17_c0ff_ee00)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_leaves_draws_untouched() {
        assert_eq!(salt(0), 0);
        assert_ne!(salt(1), 0);
        assert_ne!(salt(1), salt(2));
    }
}
