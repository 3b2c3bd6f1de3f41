"""Outside-in tracing of the ifsshadow library.

The tracer times calls into each module's public functions without editing
the library.  ``install`` rebinds every module-level name that refers to a
traced function (the library binds names with ``from .core import ...``, so
one function is bound in several modules, the package namespace included)
and patches the traced methods on their classes; ``uninstall`` restores
every binding.  Two bindings stay untraced: the solver table
``cli._SOLVERS`` and ``systems.CATALOG`` keep references taken at import
time, so ``shadow_auto`` called from the CLI's solver table and the catalog
builders called by ``build_system`` count as self time of their caller.

Spans (name, start, end, parent, task) stay in memory and are written out
when the traced run ends.  A span's self time is its duration minus the part
of it covered by child spans; spans opened in a worker thread with no open
span of their own take the innermost open span of the main thread as parent,
so the parallel work of ``check_ball_cover`` is not counted twice.

Counters are read from outside too: from argument shapes, from result
objects (``ShadowResult.iterations``, ``SemiConjugacy.flagged``), from the
exceptions a call raises, and for the bump inverse by re-applying the map to
each inverse output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

HOOK_SPAN = "bench.hook"

#: A bump-inverse output z of p counts as unconverged when dist(f(z), p)
#: exceeds this: the inverse stops silently after 120 fixed-point steps.
BUMP_INVERT_TOL = 1e-10

# Per-layer metrics of the traced run, in the order they are reported:
# (name, unit, "self" with the span names whose self times add up, or
# "count" with the counter name).  The end-to-end metric each one should
# move, and on which workload, is listed in perfbench/README.md.
LAYER_METRICS = (
    ("core.lookup_calls", "count", "count", "core.lookup_calls"),
    ("core.links_generated", "count", "count", "core.links_generated"),
    ("core.gen_pseudo_orbit_s", "s", "self",
     ("core.gen_pseudo_orbit", "core.iterate_chain")),
    ("core.link_residuals_s", "s", "self",
     ("core.link_residuals", "core.validate_chain")),
    ("core.rho_s", "s", "self",
     ("core.rho0", "core.rho1", "core.dist_D0", "core.dist_D1")),
    ("core.rho_grid_points", "count", "count", "core.rho_grid_points"),
    ("maps.fwd_calls", "count", "count", "maps.fwd_calls"),
    ("maps.fwd_points", "count", "count", "maps.fwd_points"),
    ("maps.invert_s", "s", "self", ("maps.invert",)),
    ("maps.invert_points", "count", "count", "maps.invert_points"),
    ("maps.jacobian_s", "s", "self", ("maps.jacobian", "maps.fd_jacobian")),
    ("maps.jacobian_points", "count", "count", "maps.jacobian_points"),
    ("space.displacement_s", "s", "self", ("space.displacement",)),
    ("space.displacement_calls", "count", "count", "space.displacement_calls"),
    ("space.displacement_points", "count", "count", "space.displacement_points"),
    ("space.grid_points_s", "s", "self",
     ("space.grid_points", "space.lattice_samples")),
    ("shadowing.newton_s", "s", "self", ("shadowing.shadow_newton",)),
    ("shadowing.newton_sweeps", "count", "count", "shadowing.newton_sweeps"),
    ("shadowing.newton_unconverged", "count", "count",
     "shadowing.newton_unconverged"),
    ("shadowing.uniqueness_s", "s", "self", ("shadowing.check_uniqueness",)),
    ("shadowing.uniqueness_candidates_per_trial", "ratio", "ratio",
     ("shadowing.uniqueness_candidates", "shadowing.uniqueness_trials")),
    ("shadowing.contraction_s", "s", "self", ("shadowing.shadow_contraction",)),
    ("shadowing.linear_hyperbolic_s", "s", "self",
     ("shadowing.shadow_linear_hyperbolic",)),
    ("shadowing.lipschitz_calls", "count", "count", "shadowing.lipschitz_calls"),
    ("shadowing.lipschitz_s", "s", "self", ("shadowing.lipschitz_estimate",)),
    ("expansive.orbit_separation_s", "s", "self",
     ("expansive.estimate_expansive_const", "expansive.max_orbit_separation",
      "expansive.separation_times_batch", "expansive.separation_time",
      "expansive.estimate_N_of_mu")),
    ("expansive.pair_steps", "count", "count", "expansive.pair_steps"),
    ("perturb.move_points_s", "s", "self", ("perturb.move_points_diffeo",)),
    ("perturb.bump_invert_s", "s", "self", ("perturb.bump_invert",)),
    ("perturb.bump_invert_points", "count", "count", "perturb.bump_invert_points"),
    ("perturb.bump_invert_unconverged", "count", "count",
     "perturb.bump_invert_unconverged"),
    ("perturb.perturbed_ifs_s", "s", "self",
     ("perturb.perturbed_ifs", "perturb.adjusted_points",
      "perturb.inverse_lipschitz_estimate")),
    ("perturb.build_semiconj_s", "s", "self", ("perturb.build_semiconj",)),
    ("perturb.semiconj_flagged", "count", "count", "perturb.semiconj_flagged"),
    ("perturb.semiconj_residual_s", "s", "self", ("perturb.semiconj_residual",)),
    ("perturb.nearest_pairs", "count", "count", "perturb.nearest_pairs"),
    ("perturb.ball_cover_s", "s", "self", ("perturb.check_ball_cover",)),
    ("systems.build_s", "s", "self", ("systems.*",)),
    ("systems.build_calls", "count", "count", "systems.build_calls"),
    ("io.csv_write_s", "s", "self",
     ("io.chain_to_csv_text", "io.write_chain", "io.atomic_write_text",
      "io.write_json", "io.dump_json")),
    ("io.csv_read_s", "s", "self",
     ("io.read_chain", "io.read_sigma", "io.read_ifs", "io.parse_sigma",
      "io.load_system")),
    ("io.bytes_written", "count", "count", "io.bytes_written"),
    ("cli.self_s", "s", "self", ("cli.main",)),
    ("cli.nonzero_exits", "count", "count", "cli.nonzero_exits"),
)


def _npoints(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        shape = np.shape(x)
    return math.prod(shape[:-1])


class Tracer:
    """Spans and counters for one traced run of the library."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.task = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def active(self) -> bool:
        return bool(self._restore) and not getattr(self._local, "paused", False)

    def _open(self, name: str) -> int:
        st = self._stack()
        with self._lock:
            if st:
                parent = st[-1]
            elif st is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.task])
        st.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, n=1) -> None:
        with self._lock:
            self.counters[name] += n

    def parent_name(self):
        """Name of the innermost open span of this thread, or None."""
        st = self._stack()
        return self.spans[st[-1]][0] if st else None

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark code (checks, counters) without tracing it."""
        was = getattr(self._local, "paused", False)
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = was

    def hook(self, fn, *args):
        """Run fn untraced inside a span of its own, so its time is
        subtracted from the enclosing span's self time and counted nowhere."""
        idx = self._open(HOOK_SPAN)
        try:
            with self.paused():
                fn(*args)
        finally:
            self._close(idx)

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None, error=None):
        """Span around fn.  ``before(*args)`` runs ahead of the call and
        ``after(result, *args)`` / ``error(exc, *args)`` after it; they read
        shapes and attributes and may call ``count``.  A non-None return of
        ``after`` replaces the result (an instrumented copy of it)."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active():
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx)
                if error is not None:
                    error(exc, *args, **kwargs)
                raise
            tracer._close(idx)
            if after is not None:
                replaced = after(out, *args, **kwargs)
                if replaced is not None:
                    out = replaced
            return out

        traced.__wrapped__ = fn
        return traced

    def counting(self, fn, calls: str, points: str | None = None):
        """Counter-only wrapper for per-step calls too frequent for spans."""
        tracer = self

        def counted(*args):
            if tracer.active():
                with tracer._lock:
                    tracer.counters[calls] += 1
                    if points is not None:
                        tracer.counters[points] += _npoints(args[-1])
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def count_fwd(self, m):
        """Copy of map m whose forward formula counts its calls and points."""
        return dataclasses.replace(
            m, fwd=self.counting(m.fwd, "maps.fwd_calls", "maps.fwd_points"))

    def instrument_bump(self, f, top_level: bool):
        """Copy of bump diffeomorphism f with a traced inverse, and a counted
        forward formula when the benchmark itself built it."""
        fwd0, space = f.fwd, f.space

        def check(z, p):
            bad = space.dist(np.asarray(fwd0(z), float), p) > BUMP_INVERT_TOL
            self.count("perturb.bump_invert_unconverged", int(np.count_nonzero(bad)))

        inv = self.wrap(
            "perturb.bump_invert", f.inv,
            before=lambda p: self.count("perturb.bump_invert_points", _npoints(p)),
            after=lambda z, p: self.hook(check, z, p))
        g = dataclasses.replace(f, inv=inv)
        return self.count_fwd(g) if top_level else g

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        lib = self.lib
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for (mod, name), hooks in self._function_hooks().items():
            fn = getattr(getattr(lib, mod), name)
            wrappers[id(fn)] = (fn, self.wrap(f"{mod}.{name}", fn, **hooks))
        modules = [lib] + [getattr(lib, m) for m in
                           ("space", "maps", "core", "shadowing", "expansive",
                            "perturb", "systems", "io", "cli")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        self._install_methods()

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _install_methods(self) -> None:
        lib = self.lib
        Space, SmoothMap = lib.space.Space, lib.maps.SmoothMap
        SymbolSequence, MetricGrid = lib.core.SymbolSequence, lib.space.MetricGrid
        count = self.count

        def displacement_counts(space, p, q):
            count("space.displacement_calls")
            shape = np.broadcast_shapes(np.shape(p), np.shape(q))
            count("space.displacement_points", math.prod(shape[:-1]))

        self._set(Space, "displacement", self.wrap(
            "space.displacement", Space.displacement, before=displacement_counts))
        self._set(SmoothMap, "invert", self.wrap(
            "maps.invert", SmoothMap.invert,
            before=lambda m, p, *a, **k: count("maps.invert_points", _npoints(p))))
        self._set(SmoothMap, "jacobian", self.wrap(
            "maps.jacobian", SmoothMap.jacobian,
            before=lambda m, x: count("maps.jacobian_points", _npoints(x))))
        self._set(SymbolSequence, "lookup",
                  self.counting(SymbolSequence.lookup, "core.lookup_calls"))

        getter = MetricGrid.__dict__["points"].fget
        build = self.wrap("space.grid_points", getter)

        def points(grid):
            # only the first access builds the net; later ones read a cache
            return build(grid) if grid._points is None else getter(grid)

        self._set(MetricGrid, "points", property(points))

    def _function_hooks(self) -> dict:
        """Traced public functions, keyed by (defining module, name), with
        the counters read from their arguments, results and exceptions."""
        lib, count = self.lib, self.count
        convergence_error = lib.shadowing.ShadowingConvergenceError

        def links(chain, *a, **k):
            count("core.links_generated", chain.n_links)

        def rho_points(out, f, g, grid, *a, **k):
            count("core.rho_grid_points", len(grid))

        def sweeps(out, *a, **k):
            count("shadowing.newton_sweeps", out.iterations)

        def unconverged(exc, *a, **k):
            if isinstance(exc, convergence_error):
                count("shadowing.newton_unconverged")

        def uniqueness(out, *a, **k):
            count("shadowing.uniqueness_candidates", out.n_candidates)
            count("shadowing.uniqueness_trials", out.trials)

        def pair_steps(out, F, sigma, X, Y, n_cap):
            count("expansive.pair_steps", len(X) * n_cap)

        def batch_steps(times, F, sigma, X, Y, eta, n_cap):
            # the loop stops once every pair has separated
            if len(times) == 0:
                return
            steps = n_cap if np.any(np.isinf(times)) else max(1, int(np.max(times)))
            count("expansive.pair_steps", len(times) * steps)

        def bump(out, *a, **k):
            return self.instrument_bump(out, top_level=self.parent_name() is None)

        def flagged(out, *a, **k):
            count("perturb.semiconj_flagged", len(out.flagged))

        def nearest(F, G, sigma, h, K, *a, **k):
            n = h.samples.shape[0] - len(h.flagged)
            window = 2 * K + 1 if h.two_sided else K + 1
            count("perturb.nearest_pairs", window * n * n)

        def built(out, *a, **k):
            parent = self.parent_name()
            if parent is not None and parent.startswith("systems."):
                return out
            count("systems.build_calls")
            return type(out)(tuple(self.count_fwd(m) for m in out.maps))

        def written(out, path, text):
            count("io.bytes_written", len(text.encode()))

        def exit_code(code, *a, **k):
            if code != 0:
                count("cli.nonzero_exits")

        hooks = {
            ("core", "gen_pseudo_orbit"): dict(after=links),
            ("core", "iterate_chain"): {},
            ("core", "link_residuals"): {},
            ("core", "validate_chain"): {},
            ("core", "orbit_map"): {},
            ("core", "rho0"): dict(after=rho_points),
            ("core", "rho1"): dict(after=rho_points),
            ("core", "dist_D0"): {},
            ("core", "dist_D1"): {},
            ("maps", "fd_jacobian"): {},
            ("space", "lattice_samples"): {},
            ("shadowing", "shadow_newton"): dict(after=sweeps, error=unconverged),
            ("shadowing", "shadow_contraction"): {},
            ("shadowing", "shadow_linear_hyperbolic"): {},
            ("shadowing", "shadow_auto"): {},
            ("shadowing", "lipschitz_estimate"): dict(
                before=lambda *a, **k: count("shadowing.lipschitz_calls")),
            ("shadowing", "check_uniqueness"): dict(after=uniqueness),
            ("shadowing", "verify_shadowing"): {},
            ("expansive", "estimate_expansive_const"): {},
            ("expansive", "max_orbit_separation"): dict(after=pair_steps),
            ("expansive", "separation_times_batch"): dict(after=batch_steps),
            ("expansive", "separation_time"): {},
            ("expansive", "estimate_N_of_mu"): {},
            ("perturb", "move_points_diffeo"): dict(after=bump),
            ("perturb", "perturbed_ifs"): {},
            ("perturb", "adjusted_points"): {},
            ("perturb", "inverse_lipschitz_estimate"): {},
            ("perturb", "build_semiconj"): dict(after=flagged),
            ("perturb", "semiconj_residual"): dict(before=nearest),
            ("perturb", "check_ball_cover"): {},
            ("io", "chain_to_csv_text"): {},
            ("io", "write_chain"): {},
            ("io", "atomic_write_text"): dict(after=written),
            ("io", "write_json"): {},
            ("io", "dump_json"): {},
            ("io", "read_chain"): {},
            ("io", "read_sigma"): {},
            ("io", "read_ifs"): {},
            ("io", "parse_sigma"): {},
            ("io", "load_system"): {},
            ("cli", "main"): dict(after=exit_code),
        }
        for name in ("build_system", "build_cat_ifs", "build_torus_f1",
                     "build_torus_f2", "build_torus_example",
                     "build_contraction_ifs", "build_rotation_ifs",
                     "build_identity_ifs", "build_bumped_cat_ifs"):
            hooks[("systems", name)] = dict(after=built)
        return hooks

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        children = defaultdict(list)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        totals: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(i, ())):
                c1 = min(c1, t1)
                if c1 > end:
                    covered += c1 - max(c0, end)
                    end = c1
            totals[name] += (t1 - t0) - covered
        return dict(totals)

    def layer_metrics(self) -> dict[str, dict]:
        selfs = self.self_times()
        out = {}
        for name, unit, kind, source in LAYER_METRICS:
            if kind == "self":
                value = sum(t for span, t in selfs.items()
                            if span in source
                            or any(s.endswith("*") and span.startswith(s[:-1])
                                   for s in source))
            elif kind == "count":
                value = self.counters.get(source, 0)
            else:
                num, den = (self.counters.get(s, 0) for s in source)
                value = num / den if den else 0.0
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write spans (times in microseconds from the first span) and
        counters as one JSON document."""
        base = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round((t0 - base) * 1e6, 1), round((t1 - base) * 1e6, 1),
                 parent, task] for n, t0, t1, parent, task in self.spans]
        doc = {"meta": meta, "span_fields": ["name", "start_us", "end_us",
                                             "parent", "task"],
               "span_names": names, "spans": rows,
               "counters": dict(self.counters), "self_s": self.self_times()}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
