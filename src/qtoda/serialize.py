"""JSON, LaTeX and DOT emitters.

All JSON payloads carry a schema_version field and deterministic
ordering: term lists sort lexicographically by exponent vector, word
lists by letters, q-powers as "num/den" strings in lowest terms.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .network import Network, enumerate_labeled_paths
from .torus import TorusElement

if TYPE_CHECKING:
    from .cluster import Seed

SCHEMA_VERSION = "1"


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def element_to_dict(el: TorusElement) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "generators": list(el.ctx.names),
        "terms": [
            {
                "exponents": list(vec),
                "coefficients": [[_frac(qp), c] for qp, c in coeffs],
            }
            for vec, coeffs in el.sorted_terms()
        ],
    }


def seed_to_dict(seed: Seed) -> dict:
    labels = [repr(l) for l in seed.labels]
    return {
        "schema_version": SCHEMA_VERSION,
        "labels": labels,
        "exchange_matrix": [
            [_frac(Fraction(seed.entry(i, j))) for j in seed.labels]
            for i in seed.labels
        ],
        "symmetrizers": [seed.d[l] for l in seed.labels],
        "frozen": [repr(l) for l in sorted(seed.frozen, key=repr)],
    }


def network_to_dict(net: Network) -> dict:
    paths = enumerate_labeled_paths(net)
    chips = []
    for pos in range(net.num_chips):
        letter = net.chip_letter(pos)
        chips.append(
            {
                "position": pos,
                "kind": "diagonal" if letter == 0 else ("down" if letter < 0 else "up"),
                "letter": letter,
            }
        )
    edges = []
    for pos in range(net.num_chips):
        for row, outs in net.transitions(pos).items():
            for row2, letters in outs:
                edges.append(
                    {
                        "from": [pos, row],
                        "to": [pos + 1, row2],
                        "weight": [[net.ctx.names[g], e] for g, e in letters],
                    }
                )
    return {
        "schema_version": SCHEMA_VERSION,
        "type": net.kind,
        "rank": net.n,
        "rows": [net.row_lo, net.row_hi],
        "word": list(net.word.letters),
        "chips": chips,
        "edges": edges,
        "weight_generators": list(net.ctx.names),
        "paths": [
            {
                "label": list(p.label),
                "rows": list(p.rows),
                "letters": [[net.ctx.names[g], e] for g, e in p.letters],
            }
            for p in paths
        ],
    }


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# LaTeX


def _latex_name(name: str) -> str:
    if "_" in name:
        base, sub = name.split("_", 1)
        return f"{base}_{{{sub}}}"
    return name


def element_to_latex(el: TorusElement) -> str:
    if el.is_zero():
        return "0"
    bits = []
    for vec, coeffs in el.sorted_terms():
        mono = " ".join(
            f"{_latex_name(el.ctx.names[i])}^{{{e}}}" if e != 1 else _latex_name(el.ctx.names[i])
            for i, e in enumerate(vec)
            if e
        )
        for qp, c in coeffs:
            parts = []
            if c == -1:
                parts.append("-")
            elif c != 1:
                parts.append(str(c))
            if qp != 0:
                parts.append(f"q^{{{qp}}}")
            parts.append(mono or "1")
            bits.append(" ".join(p for p in parts if p))
    out = bits[0]
    for b in bits[1:]:
        out += " - " + b[1:].strip() if b.startswith("-") else " + " + b
    return out


# ---------------------------------------------------------------------------
# DOT


def network_to_dot(net: Network) -> str:
    """Leveled layout: one rank per row, edges left to right."""
    lines = [
        "digraph network {",
        "  rankdir=LR;",
        "  node [shape=point];",
    ]
    rows = list(net.rows)
    names = net.ctx.names
    # vertices are chip boundaries (position, row); one rank per row
    for r in rows:
        members = "; ".join(f'"p{pos}r{r}"' for pos in range(net.num_chips + 1))
        lines.append(f"  {{ rank=same; {members} }}")
    for pos in range(net.num_chips):
        trans = net.transitions(pos)
        for r in rows:
            for r2, letters in trans[r]:
                weight = " ".join(
                    (names[g] if e == 1 else f"{names[g]}^{e}") for g, e in letters
                )
                attr = f' [label="{weight}"]' if weight else ""
                lines.append(f'  "p{pos}r{r}" -> "p{pos + 1}r{r2}"{attr};')
    lines.append("}")
    return "\n".join(lines)


def seed_to_dot(seed: Seed) -> str:
    """Quiver drawing; edge labels are the drawn weights w_ij = eps_ij d_j,
    dashed when a pre-amalgamation weight is a half-integer."""
    lines = ["digraph quiver {", "  node [shape=circle];"]
    for l in seed.labels:
        shape = "box" if l in seed.frozen else "circle"
        lines.append(f'  "{l}" [shape={shape}];')
    seen = set()
    for (i, j), v in sorted(seed.eps.items(), key=repr):
        if (j, i) in seen or v <= 0:
            continue
        seen.add((i, j))
        w = seed.weight(i, j)
        style = ', style=dashed' if w.denominator != 1 else ""
        lines.append(f'  "{i}" -> "{j}" [label="{w}"{style}];')
    lines.append("}")
    return "\n".join(lines)
