"""Structural fingerprints of procedures and programs.

A fingerprint hashes what the CFG *is* — blocks, terminators, call
sites, edges, order — and nothing a run consumes (behaviour objects,
labels).  Two structures with equal fingerprints are indistinguishable
to every analysis and every layout, so caches key on them: the verifier
pools its per-procedure analyses by :func:`cfg_fingerprint`, and the
decision-trace cache keys each trace by the
:func:`program_fingerprint` of the program that was captured, so a
transformed program (melded, say) never shares an entry with the
original.
"""

from __future__ import annotations

import hashlib

from .procedure import Procedure
from .program import Program


def cfg_fingerprint(proc: Procedure) -> str:
    """A structural hash of one procedure's CFG.

    Covers the procedure name, block ids, sizes, terminator kinds, call
    sites (offset + callee symbol + indirection), layout order (whose
    first block is the entry), and the edge list — and nothing else.
    """
    digest = hashlib.sha256()
    digest.update(proc.name.encode())
    for bid in proc.original_order:
        block = proc.blocks.get(bid)
        if block is None:  # corrupted CFG: dangling order entry
            digest.update(f"|b{bid}:?".encode())
            continue
        digest.update(f"|b{bid}:{block.size}:{block.kind.value}".encode())
        for call in block.calls:
            callee = call.callee if call.callee is not None else "*"
            digest.update(f":c{call.offset}:{callee}".encode())
    for edge in sorted(
        proc.edges, key=lambda e: (e.src, e.dst, e.kind.value)
    ):
        digest.update(f"|e{edge.src}>{edge.dst}:{edge.kind.value}".encode())
    return digest.hexdigest()


def program_fingerprint(program: Program) -> str:
    """A structural hash of a whole program.

    The entry procedure, then every procedure's :func:`cfg_fingerprint`
    in link order: any transform that changes one block, edge or call
    site of any procedure changes it.
    """
    digest = hashlib.sha256(f"entry:{program.entry}".encode())
    for proc in program:
        digest.update(f"|{cfg_fingerprint(proc)}".encode())
    return digest.hexdigest()
