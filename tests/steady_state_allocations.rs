//! Allocation bounds, counted with a per-thread counting allocator.
//!
//! A steady-state delta frame allocates for its output cloud and nothing
//! else: every working buffer of the interpolator, the pipeline and the kNN
//! sweep comes from the frame arena (grown by earlier frames) or the
//! session state. Frames
//! run on one worker so the whole frame runs on the counting thread. The
//! LUT refiner adds nothing to the count.
//!
//! The two decoders of untrusted bytes — `FrameMessage::decode` (the wire)
//! and `lut::io::decode` (`.vlut` files) — allocate at most a small
//! multiple of their input, whatever it claims: random bytes, mutated
//! encodings and forged counts alike. The `.vlut` decoder adds the table its
//! header names, and only when that table fits the byte budget. Seeded from
//! `CHAOS_SEED`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use volut::core::encoding::{KeyScheme, PositionEncoder};
use volut::core::lut::io::{self, LutHeader};
use volut::core::lut::{DenseLut, Lut};
use volut::core::refine::{IdentityRefiner, LutRefiner};
use volut::core::{SrConfig, SrPipeline};
use volut::pointcloud::synthetic::{self, DeltaStream, DeltaStreamConfig};
use volut::pointcloud::{runtime, PointCloud};
use volut::stream::client::SrSession;
use volut::stream::resilience::{DeltaServer, FrameMessage};

thread_local! {
    /// Allocations (and growing reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a reallocation counts its whole
    /// new size).
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down. The cells are const-initialized and have no destructor, so
    // reading them here never allocates.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOCATED_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through the methods above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`, plus the caller's `new_size` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one measured steady-state delta frame allocated, and whether its
/// index was rebuilt rather than patched.
#[derive(Debug, Clone, Copy)]
struct FrameAllocations {
    allocations: u64,
    bytes: u64,
    rebuilt: bool,
}

/// Allocations of each measured steady-state delta frame of `pipeline` over
/// the test's 10 %-churn stream, on one worker so the whole frame runs on
/// the counting thread.
fn steady_state_allocations(pipeline: SrPipeline) -> Vec<FrameAllocations> {
    runtime::with_workers(1, || {
        let mut session = SrSession::new(pipeline);
        let mut stream = DeltaStream::new(
            synthetic::humanoid(2_000, 0.2, 29),
            DeltaStreamConfig {
                churn: 0.1,
                drift: 0.04,
                jitter: 0.01,
                seed: 13,
            },
        );
        session.upsample_frame(stream.frame(), 2.0).unwrap();
        // Warm up past the first patch-budget rebuild so every buffer has
        // reached its high-water mark.
        let mut per_frame = Vec::new();
        for frame_no in 0..16 {
            let delta = stream.advance();
            let frame = stream.frame().clone();
            let rebuilds = session.temporal_stats().rebuilds;
            let before = (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get));
            let result = session.upsample_frame_delta(&frame, 2.0, delta).unwrap();
            let after = (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get));
            assert_eq!(result.cloud.len(), 2 * frame.len());
            if frame_no >= 8 {
                per_frame.push(FrameAllocations {
                    allocations: after.0 - before.0,
                    bytes: after.1 - before.1,
                    rebuilt: session.temporal_stats().rebuilds > rebuilds,
                });
            }
        }
        per_frame
    })
}

#[test]
fn steady_state_delta_frames_allocate_only_their_output() {
    let per_frame = steady_state_allocations(SrPipeline::new(
        SrConfig::default(),
        Box::new(IdentityRefiner),
    ));
    // Three, all for the output: positions and colors, each sized once for
    // input and generated tail, and the result's refiner-name string. The
    // single-tree kNN sweep that recomputes the invalidated rows
    // (`KdTree::knn_batch_with`) keeps its traversal stack, descent path,
    // best-k accumulator and Morton visit keys on the arena's kNN scratch,
    // one set per run; it allocated six times a frame when they were
    // batch-local. Before the frame arena the fresh point/parent/hood
    // lists, the pair lists and the parent table were allocated — and
    // grown push by push — on top of those, on every frame.
    let worst = per_frame.iter().map(|f| f.allocations).max().unwrap();
    assert!(
        worst <= 3,
        "steady-state frames allocated {per_frame:?} times"
    );
}

#[test]
fn an_index_rebuild_frame_allocates_no_more_than_a_patch_frame() {
    // The measured window holds the stream's second patch-budget rebuild
    // (cumulative churn past `PATCH_REBUILD_FRACTION` of the cloud): the
    // k-d build then runs on the frame arena's key buffers, grown by the
    // warm-up's first rebuild, so the frame allocates what a patch frame
    // does — its output — and not a byte of build scratch.
    let per_frame = steady_state_allocations(SrPipeline::new(
        SrConfig::default(),
        Box::new(IdentityRefiner),
    ));
    let (rebuilt, patched): (Vec<FrameAllocations>, Vec<FrameAllocations>) =
        per_frame.iter().partition(|f| f.rebuilt);
    assert!(
        !rebuilt.is_empty() && !patched.is_empty(),
        "the window holds rebuild and patch frames: {per_frame:?}"
    );
    let patch_bytes = patched.iter().map(|f| f.bytes).max().unwrap();
    for frame in rebuilt {
        assert!(
            frame.bytes <= patch_bytes,
            "a rebuild frame allocated {} bytes, patch frames at most {patch_bytes}: {per_frame:?}",
            frame.bytes
        );
    }
}

#[test]
fn steady_state_lut_refinement_allocates_nothing_more() {
    // The same stream refined through a dense Compact table: the refiner's
    // keys, radii and probe results are fixed arrays on its stack and its
    // key lanes a per-thread scratch, so the LUT path holds the identity
    // path's three allocations.
    let config = SrConfig {
        bins: 32,
        ..SrConfig::default()
    };
    let encoder = PositionEncoder::new(&config, KeyScheme::Compact).unwrap();
    let mut table = DenseLut::new(encoder.key_space()).unwrap();
    for key in 0..encoder.key_space() {
        let tiny = (key % 17) as f32 * 1e-3;
        table.set(key, [tiny, -tiny, 0.5 * tiny]).unwrap();
    }
    let refiner = LutRefiner::new(encoder, Box::new(table));
    let per_frame = steady_state_allocations(SrPipeline::new(config, Box::new(refiner)));
    let worst = per_frame.iter().map(|f| f.allocations).max().unwrap();
    assert!(
        worst <= 3,
        "steady-state LUT-refined frames allocated {per_frame:?} times"
    );
}

/// Extra seed rotated by CI (`CHAOS_SEED=<run id>`); 0 when unset, so local
/// runs stay reproducible.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// SplitMix64 stream for the decoder inputs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// A bit flip, a byte overwrite or a truncation of `bytes`.
    fn mutate(&mut self, mut bytes: Vec<u8>) -> Vec<u8> {
        if bytes.is_empty() {
            return bytes;
        }
        let at = self.below(bytes.len());
        match self.below(3) {
            0 => bytes[at] ^= 1 << self.below(8),
            1 => bytes[at] = self.next() as u8,
            _ => bytes.truncate(at),
        }
        bytes
    }
}

/// What a decoder may allocate for `len` input bytes: four bytes per input
/// byte, plus 1 KiB for the smallest table and an error message. Decoded
/// points, colors and indices are no larger than their encoding, and a
/// decoded `.vlut` entry takes about 3.3 times its 22 encoded bytes (the
/// open-addressing table runs at most 7/8 full and doubles in size).
fn decode_budget(len: usize) -> u64 {
    4 * len as u64 + 1024
}

/// Bytes the calling thread allocates while `f` runs.
fn bytes_allocated_by<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATED_BYTES.with(Cell::get);
    let result = f();
    let after = ALLOCATED_BYTES.with(Cell::get);
    drop(result);
    after - before
}

/// `body` with the wire checksum (FNV-1a over the payload) appended, so a
/// mutation reaches the decoder's length checks.
fn checksummed(mut body: Vec<u8>) -> Vec<u8> {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in &body {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    body.extend_from_slice(&h.to_le_bytes());
    body
}

/// `message` with the little-endian `value` written over `at..at + N` of its
/// payload, re-checksummed.
fn forged<const N: usize>(message: &[u8], at: usize, value: [u8; N]) -> Vec<u8> {
    let mut body = message[..message.len() - 8].to_vec();
    body[at..at + N].copy_from_slice(&value);
    checksummed(body)
}

#[test]
fn frame_message_decode_allocates_a_small_multiple_of_its_input() {
    let seed = chaos_seed();
    println!("frame message decode allocation case: CHAOS_SEED {seed}");
    let mut mix = Mix(seed ^ 0xF4A3);
    let mut inputs: Vec<Vec<u8>> = Vec::new();
    for case in 0..6 {
        let n = 1 + mix.below(400);
        let base = synthetic::humanoid(n, 0.3, mix.next());
        let base = if case % 2 == 0 {
            base
        } else {
            PointCloud::from_positions(base.positions().to_vec())
        };
        let frames = synthetic::delta_frame_sequence(
            &base,
            4,
            DeltaStreamConfig {
                churn: 0.2,
                seed: mix.next(),
                ..DeltaStreamConfig::default()
            },
        );
        let server = DeltaServer::new(frames);
        // Counts claiming more than the message holds: far more, or just
        // enough that a decoder trusting them over-allocates a few times.
        let claims = |len: usize| [u32::MAX, (len / 2) as u32, (len / 12 + 1) as u32];
        for seq in 0..4 {
            let keyframe = server.keyframe_message(seq).unwrap();
            // The keyframe's point count follows seq and kind.
            for claim in claims(keyframe.len()) {
                inputs.push(forged(&keyframe, 9, claim.to_le_bytes()));
            }
            inputs.push(keyframe);
            for base in 0..seq {
                let delta = server.delta_message(base, seq).unwrap();
                // Old and new lengths, removed and inserted counts follow
                // seq, kind and base seq.
                for field in 0..4 {
                    for claim in claims(delta.len()) {
                        inputs.push(forged(&delta, 17 + 4 * field, claim.to_le_bytes()));
                    }
                }
                inputs.push(delta);
            }
        }
    }
    for i in 0..inputs.len() {
        for _ in 0..8 {
            let mut body = inputs[i][..inputs[i].len() - 8].to_vec();
            body = mix.mutate(body);
            inputs.push(checksummed(body));
        }
    }
    for _ in 0..256 {
        let len = mix.below(2048);
        let bytes = mix.bytes(len);
        inputs.push(checksummed(bytes.clone()));
        inputs.push(bytes);
    }
    let mut decoded = 0;
    for bytes in &inputs {
        let mut ok = false;
        let used = bytes_allocated_by(|| ok = FrameMessage::decode(bytes).is_ok());
        decoded += usize::from(ok);
        assert!(
            used <= decode_budget(bytes.len()),
            "decoding {} bytes allocated {used} bytes",
            bytes.len()
        );
    }
    assert!(decoded >= 6 * 4, "the unmutated messages decode");
}

/// Bytes of the table a `.vlut` header names — one over the encoder's
/// reachable keys — when it is a valid encoder configuration whose table
/// fits the byte budget; 0 otherwise.
fn header_table_bytes(bytes: &[u8]) -> u64 {
    if bytes.len() < 8 || !bytes.starts_with(b"VLUT\x02") {
        return 0;
    }
    let config = SrConfig {
        receptive_field: usize::from(bytes[5]),
        bins: usize::from(u16::from_le_bytes([bytes[6], bytes[7]])),
        ..SrConfig::default()
    };
    PositionEncoder::new(&config, KeyScheme::Compact)
        .ok()
        .and_then(|encoder| DenseLut::over(encoder.reachable_keys()).ok())
        .map_or(0, |table| table.memory_bytes() as u64)
}

/// Beside the table its header names, when that table fits the budget,
/// decoding allocates a small multiple of its input.
#[test]
fn lut_decode_allocates_a_small_multiple_of_its_input() {
    let seed = chaos_seed();
    println!("lut decode allocation case: CHAOS_SEED {seed}");
    let mut mix = Mix(seed ^ 0x1E7);
    let mut inputs: Vec<Vec<u8>> = Vec::new();
    let header = LutHeader {
        receptive_field: 4,
        bins: 16,
    };
    for entries in [0, 1, 7, 100, 1000, mix.below(3000)] {
        let mut lut = DenseLut::new(1 << 16).unwrap();
        for _ in 0..entries {
            lut.set(u128::from(mix.next()) % (1 << 16), [0.25, -0.5, 0.125])
                .unwrap();
        }
        let bytes = io::encode(&lut, header);
        // The entry count (after magic, version, receptive field and bins)
        // claims more entries than the file holds.
        for count in [u64::MAX, 1 << 62, lut.populated() as u64 + 1, 1 << 40] {
            let mut forged = bytes.clone();
            forged[8..16].copy_from_slice(&count.to_le_bytes());
            inputs.push(forged);
        }
        for _ in 0..32 {
            inputs.push(mix.mutate(bytes.clone()));
        }
        inputs.push(bytes);
    }
    // Headers whose table is over the budget: 128⁴ reachable keys at five
    // points, and 2¹¹² at eight points of 16 bits.
    for (receptive_field, bins) in [(5u8, 128u16), (8, u16::MAX)] {
        let mut bytes = b"VLUT\x02".to_vec();
        bytes.push(receptive_field);
        bytes.extend_from_slice(&bins.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(header_table_bytes(&bytes), 0);
        inputs.push(bytes);
    }
    for _ in 0..256 {
        let len = mix.below(2048);
        let mut bytes = mix.bytes(len);
        if len >= 8 && mix.below(2) == 0 {
            // Past the magic, version and header checks, so the count is read.
            bytes[..8].copy_from_slice(b"VLUT\x02\x04\x10\x00");
        }
        inputs.push(bytes);
    }
    let mut decoded = 0;
    for bytes in &inputs {
        let table = header_table_bytes(bytes);
        let mut ok = false;
        let used = bytes_allocated_by(|| ok = io::decode(bytes).is_ok());
        decoded += usize::from(ok);
        assert!(
            used <= decode_budget(bytes.len()) + table,
            "decoding {} bytes allocated {used} bytes beside a {table}-byte table",
            bytes.len()
        );
    }
    assert!(decoded >= 6, "the unmutated tables decode");
}
