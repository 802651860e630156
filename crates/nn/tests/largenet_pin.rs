//! The NN-L oracle pinned by value: `LargeNet::segment` and
//! `LargeNet::forward_backbone` must keep producing the same mask words and
//! the same feature bits, to the bit, for every profile the experiments use.
//!
//! The masks cover what a rewrite of the raster is most likely to get wrong:
//! a deployment-size ground truth (`cows` at 864×480, large enough to take
//! the row-parallel path), a ragged ellipse, per-pixel hash noise (every
//! pixel is a boundary pixel), a single all-background row exactly one word
//! wide, two all-foreground rows straddling three words, and a single pixel.
//! The seeds include 0 and `u64::MAX`, whose salted variants hit the hash's
//! extremes. The constants were recorded at commit `4987079`.

use vrd_nn::{LargeNet, LargeNetProfile};
use vrd_video::davis::{davis_sequence, SuiteConfig};
use vrd_video::texture::hash2;
use vrd_video::SegMask;

const SEEDS: [u64; 4] = [0, 7, 0x40f0, u64::MAX];

/// FNV-1a, continued from `h` over a byte string.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The named fixture masks, in a fixed order.
fn masks() -> Vec<(&'static str, SegMask)> {
    let cfg = SuiteConfig {
        width: 864,
        height: 480,
        frames: 1,
        seed: 0x40f0,
    };
    let cows = davis_sequence("cows", &cfg).expect("cows is a suite sequence");
    let (ew, eh) = (97usize, 61usize);
    let ellipse = SegMask::from_bits(
        ew,
        eh,
        (0..ew * eh).map(|i| {
            let (x, y) = ((i % ew) as f32 - 45.5, (i / ew) as f32 - 31.0);
            (x / 33.0).powi(2) + (y / 21.0).powi(2) <= 1.0
        }),
    );
    let noise = SegMask::from_bits(65, 33, (0..65 * 33).map(|i| hash2(i, 43, 5) & 1 == 1));
    let mut ones = SegMask::new(130, 2);
    ones.fill_rect(vrd_video::Rect::new(0, 0, 130, 2));
    let mut dot = SegMask::new(1, 1);
    dot.set(0, 0, 1);
    vec![
        ("cows", cows.gt_masks[0].clone()),
        ("ellipse", ellipse),
        ("noise", noise),
        ("zeros", SegMask::new(64, 1)),
        ("ones", ones),
        ("dot", dot),
    ]
}

/// Digests of `segment` words and `forward_backbone` bits over every seed.
fn digests(net: &LargeNet, gt: &SegMask) -> (u64, u64) {
    let (mut seg, mut feat) = (FNV_OFFSET, FNV_OFFSET);
    for seed in SEEDS {
        for w in net.segment(gt, seed).words() {
            seg = fnv1a(seg, &w.to_le_bytes());
        }
        let backbone = net.forward_backbone(gt, seed);
        for v in backbone.tensor().as_slice() {
            feat = fnv1a(feat, &v.to_bits().to_le_bytes());
        }
    }
    (seg, feat)
}

#[test]
fn oracle_is_pinned_by_value() {
    // Per mask, (segment digest, forward_backbone digest) for favos, osvos
    // and selsa.
    let pinned = [
        (
            "cows",
            [
                (0xec19_6154_0f0d_9d73, 0xfcfb_e46c_5da0_eb7b),
                (0x5821_8ce1_6ba7_c4b1, 0xd78e_0ccc_f6e9_f1cc),
                (0xfe4d_f066_547b_a984, 0xc6f5_0a86_7390_cbb5),
            ],
        ),
        (
            "ellipse",
            [
                (0x0b65_789a_b596_5960, 0x7aed_c78e_a758_47ec),
                (0xe486_ad17_408c_f8f5, 0x3d1b_bbf8_cd71_478b),
                (0xce5a_68a9_fbf3_6c56, 0xbf35_44ea_a587_1525),
            ],
        ),
        (
            "noise",
            [
                (0x772d_1ea3_7749_203e, 0x74a0_c5ed_fe36_9452),
                (0x5427_cc63_e4ef_9f11, 0x4038_d189_7697_b7e5),
                (0x7d43_ba42_ad3d_743b, 0xfdb7_2c82_ae37_2595),
            ],
        ),
        (
            "zeros",
            [
                (0x0c82_1078_4d8a_f5a5, 0x2bfe_4f9f_6284_f725),
                (0x0c82_1078_4d8a_f5a5, 0x2bfe_4f9f_6284_f725),
                (0x0c82_1078_4d8a_f5a5, 0x2bfe_4f9f_6284_f725),
            ],
        ),
        (
            "ones",
            [
                (0xf954_8740_3112_2325, 0x33fa_ae5d_3d0b_b4c5),
                (0xf954_8740_3112_2325, 0x33fa_ae5d_3d0b_b4c5),
                (0xf954_8740_3112_2325, 0x33fa_ae5d_3d0b_b4c5),
            ],
        ),
        (
            "dot",
            [
                (0xfdcd_b80e_5fd8_d165, 0x2a3b_1bf5_b2a6_e0c5),
                (0xfdcd_b80e_5fd8_d165, 0x2a3b_1bf5_b2a6_e0c5),
                (0xfdcd_b80e_5fd8_d165, 0x2a3b_1bf5_b2a6_e0c5),
            ],
        ),
    ];
    let masks = masks();
    let profiles = [
        LargeNetProfile::favos(),
        LargeNetProfile::osvos(),
        LargeNetProfile::selsa(),
    ];
    assert_eq!(masks.len(), pinned.len());
    for ((mask, gt), (want_mask, want)) in masks.iter().zip(pinned) {
        assert_eq!(*mask, want_mask);
        for (profile, want) in profiles.iter().zip(want) {
            assert_eq!(
                digests(&LargeNet::new(*profile), gt),
                want,
                "{mask}, {}: oracle output moved",
                profile.name
            );
        }
    }
}
