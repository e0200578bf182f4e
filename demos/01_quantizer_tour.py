"""Tour of the stochastic quantizer and its wire codec.

Walks one gradient vector through quantize -> encode -> decode -> dequantize,
then demonstrates the two statistical guarantees the rest of the project
leans on: unbiasedness and the variance ceiling.

Run:  python demos/01_quantizer_tour.py
"""

import numpy as np

from dqsim import (
    QuantizerConfig,
    decode,
    dequantize,
    dequantized_draws,
    encode,
    quantize,
    sign_quantize,
    variance_bound,
)

rng = np.random.default_rng(0)

print("=== one vector through the codec ===")
g = np.array([0.31, -0.42, 0.05, 0.98])
cfg = QuantizerConfig(bits=3)  # 1 sign bit + 2 level bits, s = 3 levels
q = quantize(g, cfg, rng)
print(f"input:          {g}")
print(f"norm (wire):    {q.norm}")
print(f"signs:          {q.signs}")
print(f"levels (of {cfg.levels}):  {q.levels}")

frame = encode(q)
print(f"frame:          {frame.hex()}  ({len(frame)} bytes, "
      f"{q.encoded_bits} bits before padding)")
back = decode(frame, g.size, cfg)
print(f"round trip ok:  {np.array_equal(back.levels, q.levels)}")
print(f"dequantized:    {dequantize(q)}")

print()
print("=== unbiasedness: the mean of many draws is the input ===")
n = 200_000
draws = dequantized_draws(g, cfg, rng, n)
mean = draws.mean(axis=0)
print(f"empirical mean: {np.round(mean, 4)}")
print(f"max deviation:  {np.abs(mean - g).max():.2e} "
      f"(standard error is about {draws.std(axis=0).max() / np.sqrt(n):.2e})")

print()
print("=== variance ceiling: error energy shrinks 4x per extra bit ===")
for bits in (2, 3, 4, 6, 8):
    c = QuantizerConfig(bits=bits)
    sample = dequantized_draws(g, c, rng, 20_000)
    err = ((sample - g) ** 2).sum(axis=1).mean()
    print(f"bits={bits}:  measured E||err||^2 = {err:.5f}   "
          f"ceiling = {variance_bound(c, g):.5f}")

print()
print("=== the 1-bit sign codec keeps only direction and average scale ===")
q1 = sign_quantize(g)
print(f"dequantized:    {dequantize(q1)}")
print(f"cost:           {q1.encoded_bits} bits vs "
      f"{32 * g.size + 32} for raw float32")
