"""Diversity measures: within populations and between demes.

The punctuated-equilibria thread (Cohoon 1987; Starkweather 1991 — E10)
claims "relatively isolated demes converge to different solutions and …
migration and recombination combine partial solutions".  Showing it needs
genotypic diversity *within* a deme and *divergence between* demes.
"""

from __future__ import annotations

import numpy as np

from ..core.population import Population

__all__ = ["gene_entropy", "between_deme_divergence"]


def _genome_matrix(population: Population) -> np.ndarray:
    return np.stack([ind.genome.astype(float) for ind in population])


def gene_entropy(population: Population) -> float:
    """Mean per-locus Shannon entropy (bits) for discrete genomes.

    1.0 = maximal diversity per binary locus, 0.0 = converged.
    """
    g = _genome_matrix(population)
    entropies = []
    for col in range(g.shape[1]):
        _, counts = np.unique(g[:, col], return_counts=True)
        p = counts / counts.sum()
        entropies.append(float(-(p * np.log2(p)).sum()))
    return float(np.mean(entropies))


def between_deme_divergence(demes: list[Population]) -> float:
    """Mean L1 distance between deme centroids.

    High values while within-deme diversity is low = the punctuated-
    equilibria signature: each deme converged, but to *different* places.
    """
    if len(demes) < 2:
        return 0.0
    centroids = np.stack([_genome_matrix(p).mean(axis=0) for p in demes])
    n = centroids.shape[0]
    dists = [
        float(np.abs(centroids[i] - centroids[j]).sum())
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return float(np.mean(dists))
