"""splitmix64 stream: golden vectors, unit mapping, bulk/scalar equality."""

import numpy as np
import pytest

from dhworkspace.rng import GOLDEN, MASK64, SplitMix64, bulk_unit

# first outputs for seed 0, cross-checked against an independent
# implementation of the algorithm before being frozen here
SEED0_PREFIX = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]

# first 64 outputs for seed 42, produced once by the verified
# implementation and pinned to catch platform drift
SEED42_PREFIX = [
    0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52, 0x581CE1FF0E4AE394,
    0x09BC585A244823F2, 0xDE4431FA3C80DB06, 0x37E9671C45376D5D, 0xCCF635EE9E9E2FA4,
    0x5705B8770B3D7DD5, 0x9E54D738297F77AE, 0x3474724A775B19BF, 0x7E348A0E451650BE,
    0x836DED897F3E46E6, 0x851F977347ED6DB7, 0xAA47E31C02E78EDC, 0x341452C54D7C33F2,
    0x1A83D752F35EBA75, 0x7ED90003F67F9E1D, 0x17EADFF448A86A07, 0xB05ECA1A2972B860,
    0xF513444B6455A3E8, 0x12B3A6DD261F6E99, 0x998D8FB100CA15D5, 0x9EAC75D45474C891,
    0x12FC33F229B7B950, 0x470EA7E37990E511, 0xBDF25B150620A835, 0xC9167E198FB9991F,
    0xF1222631CDC86D07, 0xB1B59F1B53585E43, 0xCA376DA14213D975, 0xD72C1692509D2C5E,
    0xA5A7FE4E63A4F49D, 0xC83B65023BCB7FDE, 0xA3351C7FC9A4C255, 0x61492DC04AF06E43,
    0x102267F0F38C5511, 0x441C09C50B29DB41, 0xC2DE56B8961D5F40, 0x178B25AC7EBBDF84,
    0x87BEBC2706D02922, 0x28B7D294CE2B6939, 0x45E78CF4FE332D8C, 0xC6582FCBA2A4AF11,
    0xAB155B91FF450033, 0x5246B314ECD58FCA, 0x15A099069C7D64AA, 0x247B01271F2670D7,
    0x813F3C933EA15B6E, 0xF828B6A4C0F08CEF, 0x5E402C0A9DD5BB41, 0x30415E8A6BE95008,
    0x2781AFB139CC2D24, 0x51F578ECE4C68F5B, 0x06AD07051C9DFA35, 0xD28F82F00D3CD44B,
    0xAF080B41CDF27A01, 0x8E53B8DA0059E8BA, 0xE00926AC0BA9B7B0, 0x084235B62DC64CBA,
    0x42577FCEF4571016, 0xF6FD4F0B3AC5EA86, 0x9C08F817BB9E9346, 0x0B7DCBD429A0BAAA,
]


def test_seed0_golden_prefix():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == SEED0_PREFIX


def test_seed42_golden_prefix():
    rng = SplitMix64(42)
    assert [rng.next_u64() for _ in range(64)] == SEED42_PREFIX


def test_equal_seeds_equal_streams():
    a, b = SplitMix64(987654321), SplitMix64(987654321)
    assert [a.next_u64() for _ in range(1000)] == [b.next_u64() for _ in range(1000)]


def test_state_advances_by_golden_increment():
    rng = SplitMix64(5)
    before = rng.state
    rng.next_u64()
    assert rng.state == (before + GOLDEN) & MASK64


def test_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 64).state == 0
    assert SplitMix64(-1).state == MASK64


def test_unit_is_top_53_bits_of_u64():
    a, b = SplitMix64(9), SplitMix64(9)
    for _ in range(100):
        assert b.next_unit() == (a.next_u64() >> 11) * 2.0 ** -53


def test_unit_mapping_bounds():
    # the 53-bit mapping can produce exactly 0.0 and tops out just below 1.0
    assert (0 >> 11) * 2.0 ** -53 == 0.0
    top = (MASK64 >> 11) * 2.0 ** -53
    assert top == (2 ** 53 - 1) / 2 ** 53
    assert top < 1.0


def test_unit_range_and_mean():
    u = bulk_unit(0, 100000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


@pytest.mark.parametrize("seed", [0, 42, 2 ** 64 - 1])
def test_bulk_unit_matches_scalar(seed):
    rng = SplitMix64(seed)
    scalar = np.array([rng.next_unit() for _ in range(5000)])
    assert np.array_equal(bulk_unit(seed, 5000), scalar)


def test_bulk_unit_offset_slices_the_stream():
    rng = SplitMix64(42)
    scalar = np.array([rng.next_unit() for _ in range(2000)])
    assert np.array_equal(bulk_unit(42, 500, offset=1500), scalar[1500:])


def test_bulk_unit_degenerate_counts():
    assert bulk_unit(1, 0).shape == (0,)
    with pytest.raises(ValueError):
        bulk_unit(1, -1)


def test_bulk_unit_refuses_what_it_would_alias():
    # seeds outside 64 bits would alias another seed's stream, and a
    # negative offset would read draws from before the stream's start
    for seed in (-1, MASK64 + 1, MASK64 + 43):
        with pytest.raises(ValueError, match="seed"):
            bulk_unit(seed, 1)
    with pytest.raises(ValueError, match="offset"):
        bulk_unit(42, 3, offset=-1)
    rng = SplitMix64(MASK64)
    assert bulk_unit(MASK64, 1)[0] == rng.next_unit()
