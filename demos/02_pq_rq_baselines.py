"""Product and residual quantization baselines.

PQ splits vectors into sub-spaces and quantizes each independently; RQ
quantizes the whole vector, then quantizes what is left, stage by
stage. Both run through the same decoder and ADC table: RQ's stages sit
on one full-width sub-space, so their codewords add up. The ADC table
turns either into a cheap inner-product scan.
"""

import numpy as np

from fneq import Dataset, SubVectorLayout, build_adc_table, decode, train_pq, train_rq
from fneq.clustering import ClusteringParams

rng = np.random.default_rng(13)
data = Dataset(rng.normal(size=(5000, 32)))
params = ClusteringParams(seed=13)

print("-- product quantization --")
for m_dir in (2, 4, 8):
    index = train_pq(data, m_dir=m_dir, k_star=32, params=params)
    recon = decode(index.codes.codes, index.codebooks, index.layout)
    err = np.mean(np.linalg.norm(data.items - recon, axis=1))
    print(f"m={m_dir}: mean reconstruction error {err:.4f}")

print("-- residual quantization --")
for stages in (1, 2, 3):
    index = train_rq(data, stages=stages, k_star=32, params=params)
    recon = decode(index.codes.codes, index.codebooks, SubVectorLayout(D=32, m_dir=1))
    err = np.mean(np.linalg.norm(data.items - recon, axis=1))
    print(f"stages={stages}: mean residual norm {err:.4f}")

print("-- asymmetric inner-product table --")
index = train_pq(data, m_dir=4, k_star=32, params=params)
q = rng.normal(size=32)
table = build_adc_table(q, index.codebooks, index.layout)
codes = index.codes.codes[:5]
via_table = sum(table.tables[j, codes[:, j]] for j in range(4))
direct = decode(codes, index.codebooks, index.layout) @ q
print("table lookups:", np.round(via_table, 6))
print("direct dot:   ", np.round(direct, 6))
