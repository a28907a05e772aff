//! Golden logits: every served variant's output bits, pinned per image.
//!
//! The four `vit196` variants the benchmark's engines serve (taylor, softmax, unified
//! at threshold 0.5, int8 calibrated on eight seeded images) and the two `vit1024`
//! variants of its offline workload are run through `infer_batch_into` at several
//! batch sizes, and each image's logits are reduced to an FNV-1a hash of their
//! `f32::to_bits`. One table entry per image means the same table also checks batch
//! invariance: image `i` must give the same bits in every batch that holds it. The
//! `vit1024` batch of 5 is above the model's lane grain, so it pins the image-lanes
//! path as well as the sequential one.
//!
//! A kernel change that keeps every output element's chain of floating-point
//! operations (a new register tile, a new packer, a new blocking) must leave this
//! table untouched. The FMA and the scalar GEMM tiles round differently, so the
//! expected table is keyed on [`simd_available`]; CI runs the scalar one under
//! `--cfg force_scalar`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use vitality::tensor::simd::simd_available;
use vitality::tensor::{init, Matrix, Workspace};
use vitality::vit::{AttentionVariant, TrainConfig, VisionTransformer};

/// Seed of the model weights (the benchmark's `MODEL_SEED`).
const MODEL_SEED: u64 = 196;
/// Seed of the image pool the batches are drawn from.
const IMAGE_SEED: u64 = 7;
/// Seed of the int8 calibration images.
const CALIBRATION_SEED: u64 = 8;

const VIT196_BATCHES: [usize; 3] = [1, 5, 32];
const VIT1024_BATCHES: [usize; 2] = [1, 5];

/// The served model: 196 tokens (the benchmark's `vit196_config`).
fn vit196_config() -> TrainConfig {
    TrainConfig {
        image_size: 56,
        patch_size: 4,
        embed_dim: 32,
        heads: 4,
        layers: 2,
        mlp_ratio: 2.0,
        classes: 8,
    }
}

/// The high-resolution offline model: 1024 tokens (the benchmark's `vit1024_config`).
fn vit1024_config() -> TrainConfig {
    TrainConfig {
        image_size: 128,
        patch_size: 4,
        embed_dim: 64,
        heads: 1,
        layers: 4,
        mlp_ratio: 4.0,
        classes: 8,
    }
}

fn images(seed: u64, count: usize, size: usize) -> Vec<Matrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| init::uniform(&mut rng, size, size, 0.0, 1.0))
        .collect()
}

/// FNV-1a (64-bit) over the little-endian bytes of each logit's bit pattern.
fn fnv1a(logits: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in logits.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The variants under test, each with the batch sizes it runs at.
fn cases() -> Vec<(&'static str, VisionTransformer, &'static [usize])> {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let taylor = VisionTransformer::new(&mut rng, vit196_config(), AttentionVariant::Taylor);
    let mut softmax = taylor.clone();
    softmax.set_variant(AttentionVariant::Softmax);
    let mut unified = taylor.clone();
    unified.set_variant(AttentionVariant::Unified { threshold: 0.5 });
    let mut int8 = taylor.clone();
    int8.calibrate_int8(&images(CALIBRATION_SEED, 8, vit196_config().image_size));
    let vit1024 = |variant| {
        VisionTransformer::new(
            &mut StdRng::seed_from_u64(MODEL_SEED),
            vit1024_config(),
            variant,
        )
    };
    vec![
        ("vit196:taylor", taylor, &VIT196_BATCHES),
        ("vit196:softmax", softmax, &VIT196_BATCHES),
        ("vit196:unified", unified, &VIT196_BATCHES),
        ("vit196:int8", int8, &VIT196_BATCHES),
        (
            "vit1024:taylor",
            vit1024(AttentionVariant::Taylor),
            &VIT1024_BATCHES,
        ),
        (
            "vit1024:softmax",
            vit1024(AttentionVariant::Softmax),
            &VIT1024_BATCHES,
        ),
    ]
}

/// Per-image hashes on the FMA GEMM tiles. Both the 6×16 AVX2/FMA tile and the 6×32
/// AVX-512 tile must reproduce it: each runs one output element's FMA chain in `k` order.
const FMA: &[(&str, &[u64])] = &[
    (
        "vit196:taylor",
        &[
            0x958e2bb5a6aa1f07,
            0xbd2db3f6d6c4c5ab,
            0xfa2f93925b45a886,
            0x5d20be0ebaa18d88,
            0xc2b38c4f795b9871,
            0xcb6766d1d2ef72c0,
            0x914a279f1a60dd5e,
            0x2c3e537f5535d69a,
            0x9184285780305bd6,
            0x1bd38f8e91b4fb87,
            0xaed1f4d4ef73f826,
            0x5bcd4c8c8d2c687c,
            0x9cc7f0ba6793fd85,
            0x132422f89ea1734c,
            0xb70dc0eb3b189524,
            0xd4539bdd6dc16016,
            0xcbfeca2d44144da0,
            0x89fbdb2e6d0b6c93,
            0xc4ff068f46c734f0,
            0x10ae54202efec739,
            0xb11165b65eb61066,
            0x266e84e96b5fd494,
            0xc799b40f93370b89,
            0x9b01621f0d36453e,
            0x56bdb33a5eca5887,
            0xabb1bfea625ec241,
            0x04c2996981e01f5e,
            0xca7ea5578053fa95,
            0x89d300a19c416287,
            0xc0a68620e2802761,
            0x38af52320a80cd96,
            0x5551b52a82e05cce,
        ],
    ),
    (
        "vit196:softmax",
        &[
            0xd62d3cb79e669160,
            0xa603d5fec3d45bff,
            0xbe9d7623f43fe0ad,
            0x6ae0235b844634de,
            0x663253c5589352d0,
            0x7c77d3ce9971f7e0,
            0xca10c39535b7cd0a,
            0x86cce5f8d801ed5e,
            0xaf06bdf73c819ee3,
            0x45616ce973b2c10a,
            0x12bb6f7f6ef81c85,
            0x8106792dd56179dc,
            0xbce10d5dde354ad5,
            0x8eb4a9f703be99e3,
            0x2ce9def7b78d9d6b,
            0xf9c7685e679ca337,
            0xa53652b25655f798,
            0x36a42a7aac200b13,
            0xc746d1ca2fdf4ea0,
            0x929375cbc6212ba7,
            0x4742df20f9aa8a84,
            0xae6d68a32e5f94e7,
            0xc68cfbea5ed0dce7,
            0xe107ffe4cbc3ddb7,
            0xb6dcde74abd63a67,
            0xc6fcb43ecc2cb9cf,
            0x0e362ce3082d9b6f,
            0x5d2c86f23164428a,
            0x04c94ad2e7060652,
            0x3a0d751d7303bed4,
            0xc04003d1bedc4b6a,
            0x0541eefbc435e1fe,
        ],
    ),
    (
        "vit196:unified",
        &[
            0x181cab1bae818df8,
            0x61ec01890bb6a986,
            0xb104c643bfcd421d,
            0xaea00312af557f2e,
            0xd1beb312277e8c1e,
            0xb0ec16b2573eb74a,
            0xc70f99410b62dc04,
            0xabaccba4865f61c3,
            0x392440d4fcd7d217,
            0xe15bd393411594ae,
            0x119ed714627bbab4,
            0xe13a94ade39d4712,
            0xcba032bb4eace10d,
            0xa9bfd47af517a811,
            0x85a294a239fb4504,
            0x8ea9ebe26d71a32c,
            0x664c4fcc7cb02fbd,
            0xe4edb0ce99e47c45,
            0x7b000308625c9bac,
            0x7cb187e04a21411d,
            0x97e7ad3fdc4479af,
            0xa6727cf2af116bb0,
            0xa9634102755f36f0,
            0xee7f65c4186fef65,
            0x3db98b9bf7f78a0f,
            0x448c7cee8b1c1ba7,
            0xddc05284d259e04e,
            0x6928ff9381df0d09,
            0xd40e45618533952b,
            0x1d1cfbf740db8120,
            0x85993df9c48fce47,
            0x4ee33352d9a9cc6f,
        ],
    ),
    (
        "vit196:int8",
        &[
            0xbfe3d5c8e1db2374,
            0x2fbacc2346363d33,
            0x0944dd722efc2bc0,
            0xa76f625a7d523636,
            0xd1981010a435aefd,
            0x657486845600eb36,
            0x3eca5f1597509093,
            0x80751f5e9be87063,
            0xd45e62cbbcd63f2d,
            0xfdaabcf04b6eae6b,
            0xf71321d81b449e6c,
            0xcfc0fda343783cfc,
            0x6d40a1bc4ee8ab93,
            0xda423ca0cf468782,
            0x9b4e47207a446ba8,
            0xe4d9ec23232d757c,
            0x88ed7a123feec0ac,
            0x8489c25338ce915b,
            0xe62e65400dccc559,
            0x9044b2b8df6843e8,
            0x26ac060a6beb989d,
            0xc5e70c76c607a955,
            0x60be321aca21f65f,
            0x550287fda71bd50e,
            0x65bc77896b8ec4d5,
            0x87c391a2fcfd3cc4,
            0x2f8cc2792451dcec,
            0x4df5546b19ffc906,
            0xa4815a836f6d58e9,
            0xfa5e257d6a8d2c7d,
            0x75845266a4ea0b57,
            0x4bf103b01fb90066,
        ],
    ),
    (
        "vit1024:taylor",
        &[
            0xb7f9be5520d55d90,
            0xc5d66857323f4e47,
            0x185aa3873889f5be,
            0x3b94c7b803b3e939,
            0x83eb402a4a5fca79,
        ],
    ),
    (
        "vit1024:softmax",
        &[
            0x49c56ce72ab68595,
            0x94048b0d619da14d,
            0x335694c7d4aeb9d2,
            0x4bc2c7a87f852ce5,
            0x98fe38d0f5ca05af,
        ],
    ),
];

/// Per-image hashes on the scalar GEMM tile (`--cfg force_scalar`, or a host
/// without AVX2/FMA).
const SCALAR: &[(&str, &[u64])] = &[
    (
        "vit196:taylor",
        &[
            0x98def9a5daed0af9,
            0x3372d4191d8239f3,
            0x6ce540cab5a227b8,
            0x3261c20c2d4524bd,
            0xd6de03041d70afe9,
            0x0121a739f9ded3e3,
            0x15c3f27b38d17237,
            0x1b7568d0d0a4beba,
            0x81b2d7d7c9e70507,
            0xbd3284f07c5f86ae,
            0xa2bb2b0386abb496,
            0xabff06d199dfd0dd,
            0x8ef79f81a1da19ae,
            0x0bcb75afdaf516bb,
            0xe0361936b722e377,
            0x7354512f438888f8,
            0x4dfb49db3e9b501f,
            0x93f232c15d3ffbea,
            0x8bacc318e240bcfd,
            0x2ca0a63f9e366677,
            0x5abaf03669c7ab33,
            0x5969b26c1488d064,
            0x3bacea6a9277c360,
            0x8d6e4b8effb5bfed,
            0x2d8befc91fd6600e,
            0x0c64ade9bdceebea,
            0xd49ddf9f0931391a,
            0x0185acfb989af087,
            0x9e8cf2ca4a5a9400,
            0x8dcd52a857713d8e,
            0x3c88c9b7e87ed7b8,
            0x4824d91ef9aa8ae5,
        ],
    ),
    (
        "vit196:softmax",
        &[
            0x6d3ef8f655e985b5,
            0x5d832782177237c9,
            0xb5670b366f533e25,
            0x0afc3d51a657bc3d,
            0xdb841daf8374ad94,
            0x8474dda06b2a9316,
            0x83790814e2c06dc7,
            0x82822c39bbce530b,
            0x8b0a6d182639b658,
            0xdd23912d4b7e2ed8,
            0xeb80a1f6fd405668,
            0x734e663f5e961a9e,
            0xf3d105b72d0eb5bf,
            0xe2a11cc10f4e8aa7,
            0x2bfd113066bc842e,
            0x40e5bc5f564fbc31,
            0x5d92946aed28026c,
            0x482218ac133c2443,
            0xce7288fbd9e333b5,
            0x7bc2e5ac6f1d579b,
            0x48e4c241a9ab2e48,
            0xe16a66cac1957265,
            0x2c0a0a6326fc14f6,
            0x7957c5ae45baf969,
            0xcdd951fd35d48181,
            0xf134209a5d390e36,
            0x4def2ab6c977017a,
            0x42c3c09aa2a051ad,
            0x47bb1cf2979888f1,
            0x5ba3739c298fc5cf,
            0x67aca346d19c6def,
            0x20983a84b17c4f33,
        ],
    ),
    (
        "vit196:unified",
        &[
            0x624163c2877cb47f,
            0x60c01a6416f71cce,
            0x14329da8ba4b5d2c,
            0x4b52502b7f1a66c9,
            0xd68f18aea6ffef99,
            0xf5cb3cef41a450bf,
            0xd68b4d6c13175522,
            0x34e0e74b4b472b0b,
            0x852abc56eaf569a7,
            0x5b95cb30f43a74d6,
            0xefb168f3a42dda35,
            0x5ffdc8a34352eb86,
            0x93ae99506c2ea433,
            0x3cf87cc414f770b2,
            0x1e2f2e30ecb02e7a,
            0x2617305cecf3de95,
            0x4729cc610d7a0189,
            0x1c98bd973810647d,
            0xf99d5b9344a14db6,
            0x4c800c24da2f87dc,
            0x79850726dcff770a,
            0x9a42b5b362272adc,
            0xe47b36ad0962e7da,
            0x61b6975c34813998,
            0xadf2bcc611301f26,
            0x33c0f5b08aadbaf7,
            0x7631a983c697f5da,
            0xee3c8d783421d33f,
            0x878a74030002f189,
            0x7deda6fe4bf591b7,
            0x35669ae1d77d20d8,
            0x3d0200e024aafc04,
        ],
    ),
    (
        "vit196:int8",
        &[
            0xd2c9a8391c3e1f6d,
            0x0f69d5e5011c99db,
            0x617db791b0df0c58,
            0x507f0c3b48c2e5dd,
            0xfd180ffb7b56d526,
            0xeba1964d4b25dcc9,
            0xbf8a4151846c5f8c,
            0x8f17668caeb8f432,
            0x562e74ef7e9b4c64,
            0x984a14cc4e1b6a9c,
            0xd588fc2ae3783251,
            0xf571c92381139afb,
            0xedbbdfab076c4df8,
            0xd9803ddcf28d1e73,
            0x47bebb60cef55b38,
            0x339c61c2dc5cce29,
            0xf68a0d8c6ba454ac,
            0xf22095ada3d07078,
            0xccad776b3c9342b1,
            0x5db8d581ab2121df,
            0x563f93650608e5ac,
            0x1171f30bbc481e86,
            0x55039024a6c43e7a,
            0x5486bafd6f0727b1,
            0x5a1d43e62e6688bf,
            0x85a2e5a36df41121,
            0xbe8196b99bccda9e,
            0x7abd46c46da2346d,
            0x605d12cea54e7aad,
            0x9a578ea8911307f3,
            0x1c8d8e9d7bb78a62,
            0xd7b954e397dbdbe8,
        ],
    ),
    (
        "vit1024:taylor",
        &[
            0xe5ae26e83a0f8ab3,
            0xb82950b0d3c50bf6,
            0x08478fc4afdf74d8,
            0x756f5a1b8bbf7870,
            0x3e9c41b2196273a3,
        ],
    ),
    (
        "vit1024:softmax",
        &[
            0xfaca2cca5a7539a7,
            0x8c178e1a9aba0870,
            0xfb88faea845bf8a2,
            0x3cbbeb9750ce417a,
            0x3058ffe26a2fddf8,
        ],
    ),
];

#[test]
fn served_variants_reproduce_their_golden_logits_at_every_batch_size() {
    let expected = if simd_available() { FMA } else { SCALAR };
    let mut ws = Workspace::new();
    let mut outputs = Vec::new();
    let mut actual = Vec::new();
    let mut mismatches = Vec::new();
    for (name, model, batches) in cases() {
        let max_batch = *batches.iter().max().expect("at least one batch size");
        let pool = images(IMAGE_SEED, max_batch, model.config().image_size);
        let golden = expected
            .iter()
            .find(|(key, _)| *key == name)
            .map_or(&[][..], |(_, hashes)| *hashes);
        let mut first: Vec<u64> = Vec::new();
        for &batch in batches {
            model.infer_batch_into(&pool[..batch], &mut outputs, &mut ws);
            let hashes: Vec<u64> = outputs
                .iter()
                .map(|out| fnv1a(out.logits.as_slice()))
                .collect();
            for (i, &hash) in hashes.iter().enumerate() {
                if golden.get(i) != Some(&hash) {
                    mismatches.push(format!(
                        "{name} batch {batch} image {i}: {hash:#018x}, expected {:?}",
                        golden.get(i).map(|h| format!("{h:#018x}"))
                    ));
                }
            }
            if hashes.len() > first.len() {
                first = hashes;
            }
        }
        actual.push(format!(
            "    (\"{name}\", &[{}]),",
            first
                .iter()
                .map(|h| format!("{h:#018x}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    assert!(
        mismatches.is_empty(),
        "{} logit hashes differ from the {} table:\n{}\nthis build's table:\n{}",
        mismatches.len(),
        if simd_available() { "FMA" } else { "scalar" },
        mismatches.join("\n"),
        actual.join("\n")
    );
}
