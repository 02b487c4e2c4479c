"""The leaf atlas: the default leaf search, precomputed for every small graph.

Every leaf of a default compile has at most ``max_subgraph_size = 7``
vertices, so it is isomorphic to one of the 1,252 graphs that
:func:`networkx.graph_atlas_g` lists on 1-7 vertices.  A leaf search runs
in canonical space with an RNG derived from the canonical key
(:mod:`repro.core.subgraph_compiler`), so what it finds depends only on the
canonical key, the emitter budget and
:func:`~repro.core.compile_cache.config_fingerprint`.  The atlas stores, for
every atlas graph and every budget ``1 .. max(n // 2, 1) +
FLEXIBLE_EMITTER_SLACK``, what the search finds under the default
:class:`~repro.core.config.CompilerConfig`: the winning canonical processing
order, ``search_max_emitters`` and ``orders_evaluated``.  Replaying the order
with one :func:`~repro.core.strategies.greedy_reduce` pass rebuilds the op
sequence the search returns, so a hit is bit-identical to a search.

*Why every budget up to* ``n // 2 + 2``.  :func:`~repro.graphs.entanglement.minimum_emitters`
takes the height peak in the leaf's own vertex order, so the base budget of
a leaf depends on its labelling, not only on its canonical key.  Any
labelling's peak is at most ``n // 2`` (and at least 1), and the flexible
constraint adds up to ``FLEXIBLE_EMITTER_SLACK`` more.

*The file.*  ``leaf_atlas.txt`` beside this module, package data.  Lines
starting with ``#`` are comments; the first other line is a JSON header
naming the ``config_fingerprint``, ``CACHE_SCHEMA_VERSION`` and
``CANONICAL_FORM_VERSION`` it was generated under.  Each further line is
``n encoding-hex token...`` with one token ``order:search_max:evaluated``
per budget from 1 up, the order written as canonical labels, one digit each.
A change to any of the three header values makes the table stale: it is
then never used, and the tier-1 header test fails until it is regenerated::

    python -m repro.core.leaf_atlas --write    # regenerate (about a minute)

The table is read on the first lookup, under a lock, and never dropped:
:func:`~repro.core.compile_cache.reset_process_cache` leaves it alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from repro.core.compile_cache import CACHE_SCHEMA_VERSION, config_fingerprint
from repro.core.config import CompilerConfig
from repro.core.subgraph_compiler import FLEXIBLE_EMITTER_SLACK, SubgraphCompiler
from repro.graphs.canonical_form import CANONICAL_FORM_VERSION, CanonicalForm, canonical_form
from repro.graphs.graph_state import GraphState

__all__ = [
    "ATLAS_FILE",
    "LeafAtlas",
    "atlas_budgets",
    "current_header",
    "generate_atlas",
    "get_atlas",
]

#: The package-data file beside this module.
ATLAS_FILE = "leaf_atlas.txt"

_COMMENT = (
    "# Leaf atlas: the default leaf search for every graph on 1-7 vertices.\n"
    "# Regenerate with `python -m repro.core.leaf_atlas --write`; see that module.\n"
)


def atlas_budgets(num_vertices: int) -> range:
    """The emitter budgets the atlas stores for a leaf of ``num_vertices``."""
    return range(1, max(num_vertices // 2, 1) + FLEXIBLE_EMITTER_SLACK + 1)


def current_header() -> dict:
    """The header a table generated by this code would carry."""
    return {
        "canonical_form_version": CANONICAL_FORM_VERSION,
        "config_fingerprint": list(config_fingerprint(CompilerConfig())),
        "schema_version": CACHE_SCHEMA_VERSION,
    }


@dataclass(frozen=True)
class LeafAtlas:
    """A parsed atlas: its header and one unparsed token row per canonical key.

    Rows stay strings until a lookup reads them, which keeps the loaded
    table to a few hundred kilobytes.
    """

    header: dict
    rows: dict[tuple[int, int], str]

    @classmethod
    def parse(cls, text: str) -> "LeafAtlas":
        """Parse the file format described in the module docstring."""
        header: dict | None = None
        rows: dict[tuple[int, int], str] = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = json.loads(line)
                continue
            n, encoding, tokens = line.split(" ", 2)
            rows[(int(n), int(encoding, 16))] = tokens
        return cls(header=header or {}, rows=rows)

    def usable(self, fingerprint: tuple) -> bool:
        """True when the table was generated for ``fingerprint`` by this code."""
        header = self.header
        return (
            header.get("schema_version") == CACHE_SCHEMA_VERSION
            and header.get("canonical_form_version") == CANONICAL_FORM_VERSION
            and tuple(header.get("config_fingerprint", ())) == fingerprint
        )

    def lookup(
        self, key: tuple[int, int], budget: int
    ) -> tuple[tuple[int, ...], int, int] | None:
        """``(processing order, search_max_emitters, orders_evaluated)`` or ``None``."""
        row = self.rows.get(key)
        if row is None:
            return None
        tokens = row.split(" ")
        if not 1 <= budget <= len(tokens):
            return None
        order, search_max, evaluated = tokens[budget - 1].split(":")
        return tuple(int(c) for c in order), int(search_max), int(evaluated)


_atlas: LeafAtlas | None = None
_atlas_lock = threading.Lock()


def get_atlas() -> LeafAtlas:
    """The packaged atlas, read once per process on first use.

    A missing file gives an empty atlas that is never usable, so the
    compiler falls back to the live search.
    """
    global _atlas
    if _atlas is None:
        with _atlas_lock:
            if _atlas is None:
                try:
                    text = resources.files(__package__).joinpath(ATLAS_FILE).read_text("ascii")
                except FileNotFoundError:
                    text = ""
                _atlas = LeafAtlas.parse(text)
    return _atlas


def _search_tokens(canonical: CanonicalForm) -> list[str]:
    """One token per atlas budget of ``canonical``'s graph, by live search.

    A search whose ``search_max`` stays below its budget never felt budget
    pressure, so every larger budget repeats its token (the same rule
    :meth:`SubgraphCompiler.compile_flexible` uses to skip searches).
    """
    compiler = SubgraphCompiler(CompilerConfig(subgraph_cache=False))
    graph = canonical.build_graph()
    tokens: list[str] = []
    previous: tuple[int, int] | None = None  # (budget, search_max)
    for budget in atlas_budgets(canonical.num_vertices):
        if previous is not None and previous[1] < previous[0]:
            tokens.append(tokens[-1])
            continue
        order, _, evaluated, search_max = compiler._search(
            graph, budget, None, compiler._derived_rng(canonical.key)
        )
        tokens.append(f"{''.join(str(v) for v in order)}:{search_max}:{evaluated}")
        previous = (budget, search_max)
    return tokens


def generate_atlas() -> str:
    """The atlas file's text, generated by live searches (about a minute).

    Rows go straight into a list of their own, not through the bounded
    process cache, which would evict some of them.
    """
    import networkx as nx

    rows = []
    for atlas_graph in nx.graph_atlas_g():
        if atlas_graph.number_of_nodes() == 0:
            continue
        canonical = canonical_form(GraphState(atlas_graph.nodes, atlas_graph.edges))
        rows.append((canonical.key, " ".join(_search_tokens(canonical))))
    rows.sort()
    lines = [_COMMENT + json.dumps(current_header(), sort_keys=True)]
    lines.extend(f"{n} {encoding:x} {tokens}" for (n, encoding), tokens in rows)
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.core.leaf_atlas --write``: regenerate the file."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.leaf_atlas",
        description="Regenerate the packaged leaf atlas.",
    )
    parser.add_argument("--write", action="store_true", required=True,
                        help="regenerate the file")
    parser.parse_args(argv)
    path = Path(__file__).with_name(ATLAS_FILE)
    text = generate_atlas()
    path.write_text(text, encoding="ascii")
    print(f"wrote {path} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
