#!/usr/bin/env python3
"""Print the SIMD tier a WSMD_SIMD=ON build dispatches to on this machine.

  python3 tools/expected_simd_tier.py

Reads the CPU flags from /proc/cpuinfo and applies the dispatcher's
feature lists (src/md/simd.cpp, tier_missing): avx512 needs avx2, avx512f
and avx512vl; avx2 needs avx2; anything else runs scalar. CI exports the
answer as WSMD_EXPECT_TIER, which test_simd compares with the tier the
binary picked, and uses it to decide which tiers to byte-compare.
"""
import sys

# Keep in step with tier_missing() in src/md/simd.cpp.
TIERS = [
    ("avx512", ("avx2", "avx512f", "avx512vl")),
    ("avx2", ("avx2",)),
]


def cpu_flags():
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("flags"):
                return set(line.split(":", 1)[1].split())
    return set()


def main():
    flags = cpu_flags()
    for tier, needs in TIERS:
        if all(f in flags for f in needs):
            print(tier)
            return 0
    print("scalar")
    return 0


if __name__ == "__main__":
    sys.exit(main())
