"""The whole crossover–mutation–repair cycle on genome blocks.

:func:`vector_offspring` is the distributional counterpart of
:func:`repro.core.variation.breed`: same pairwise parent
consumption (with wrap-around), same per-pair crossover probability, same
per-child mutation probability, same origin tags — but with block draws
through the kernels in :mod:`.kernels`, and producing *exactly* ``count``
children.  ``breed`` keeps the per-pair draw order, so it always
builds full pairs and discards the odd sibling; here the final block is
sliced to ``count`` before mutation, so no discarded-sibling work (or rng
draws for it) ever happens.

Loop-free by contract — enforced by ``scripts/check_engine_contract.py``.
"""

from __future__ import annotations

import numpy as np

from .kernels import crossover_kernel, mutation_kernel

__all__ = ["vector_offspring"]


def vector_offspring(
    rng: np.random.Generator,
    config,
    spec,
    parent_genomes: np.ndarray,
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Produce exactly ``count`` unevaluated child genomes from a parent block.

    Parameters
    ----------
    parent_genomes:
        ``(m, L)`` block, consumed pairwise in row order (rows 0+1 mate,
        rows 2+3 mate, …), wrapping around if fewer than ``2*ceil(count/2)``
        rows are supplied — the same pooling rule as the scalar
        ``breed``.
    count:
        Number of children to return; the pair block is sliced to this
        before mutation/repair, so exactly this much work is done.

    Returns
    -------
    ``(children, origins)`` where ``children`` is ``(count, L)`` and
    ``origins`` is a ``(count,)`` object array of ``"cx"``/``"clone"``
    tags with ``"+mut"`` appended where mutation fired.
    """
    if config.crossover is None or config.mutation is None:
        raise ValueError("config operators unresolved; call config.resolved_for(spec)")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    P = np.asarray(parent_genomes)
    if P.ndim != 2:
        raise ValueError(f"parent_genomes must be 2-D (m, L), got ndim={P.ndim}")
    if count == 0:
        return P[:0].copy(), np.empty(0, dtype=object)
    if P.shape[0] < 2:
        raise ValueError("need at least two parent rows to produce offspring")

    cx = crossover_kernel(config.crossover)
    mut = mutation_kernel(config.mutation)
    if cx is None or mut is None:
        raise ValueError(
            f"no batch kernel for {type(config.crossover).__name__} / "
            f"{type(config.mutation).__name__}; gate on supports_vectorized_variation()"
        )

    pairs = (count + 1) // 2
    idx = np.arange(2 * pairs) % P.shape[0]
    A = P[idx[0::2]]
    B = P[idx[1::2]]

    cx_mask = rng.random(pairs) < config.crossover_prob
    CA, CB = A.copy(), B.copy()
    if cx_mask.any():
        ca_x, cb_x = cx(rng, A[cx_mask], B[cx_mask])
        out_dtype = np.result_type(CA.dtype, ca_x.dtype)
        CA = CA.astype(out_dtype, copy=False)
        CB = CB.astype(out_dtype, copy=False)
        CA[cx_mask] = ca_x
        CB[cx_mask] = cb_x

    children = np.empty((2 * pairs, P.shape[1]), dtype=CA.dtype)
    children[0::2] = CA
    children[1::2] = CB
    child_cx = np.repeat(cx_mask, 2)

    # exactly `count` children survive — the odd sibling is dropped *before*
    # mutation, so unlike the scalar path no work is wasted on it
    children = children[:count]
    child_cx = child_cx[:count]

    mut_mask = rng.random(count) < config.mutation_prob
    if mut_mask.any():
        mutated = mut(rng, children[mut_mask])
        out_dtype = np.result_type(children.dtype, mutated.dtype)
        children = children.astype(out_dtype, copy=False)
        children[mut_mask] = mutated

    children = spec.repair_batch(children, rng)

    origins = np.where(child_cx, "cx", "clone").astype(object)
    origins = np.where(mut_mask, origins + "+mut", origins)
    return children, origins
