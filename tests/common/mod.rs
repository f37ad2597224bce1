//! Helpers shared by the hostile-input suites.

/// Mutants of an encoding: every bit flip and every 4-aligned u32/u64
/// overwrite with an edge value in the first 72 bytes (where a
/// snapshot keeps its backend and shard-envelope headers, and a wire
/// payload its header and first fields), then `random` seeded bit
/// flips, truncations and overwrites anywhere.
pub fn mutants(bytes: &[u8], random: usize, rng: &mut rand::rngs::StdRng) -> Vec<Vec<u8>> {
    use rand::Rng;
    const U32S: [u32; 6] = [0, 1, 0xff, 0x6800_0000, 0x7fff_ffff, u32::MAX];
    const U64S: [u64; 6] = [0, 1, 1 << 24, 1 << 40, 1 << 62, u64::MAX];
    let put = |at: usize, field: &[u8]| {
        let mut b = bytes.to_vec();
        let end = (at + field.len()).min(b.len());
        b[at..end].copy_from_slice(&field[..end - at]);
        b
    };
    let flip = |bit: usize| {
        let mut b = bytes.to_vec();
        b[bit / 8] ^= 1 << (bit % 8);
        b
    };
    let head = bytes.len().min(72);
    let mut out: Vec<Vec<u8>> = (0..head * 8).map(flip).collect();
    for at in (0..head).step_by(4) {
        out.extend(U32S.iter().map(|v| put(at, &v.to_le_bytes())));
        out.extend(U64S.iter().map(|v| put(at, &v.to_le_bytes())));
    }
    for _ in 0..random {
        let at = rng.gen_range(0..bytes.len());
        out.push(match rng.gen_range(0..4u32) {
            0 => flip(at * 8 + rng.gen_range(0..8usize)),
            1 => bytes[..at].to_vec(),
            2 => put(at, &rng.gen::<u32>().to_le_bytes()),
            _ => put(at, &rng.gen::<u64>().to_le_bytes()),
        });
    }
    out
}
