"""Incremental DPMR recompilation for fault-injection campaigns.

The paper's evaluation (§3.5) rebuilds and re-transforms the whole benchmark
once per injected fault, even though consecutive builds differ in exactly
one function.  :class:`IncrementalDpmrCompiler` removes that redundancy with
a content-addressed, function-granular transform cache:

1. the *pristine* module is transformed once per transform configuration
   (design and comparison policy, :func:`transform_digest` — the diversity
   transformation acts at run time only, so every diversity variant
   shares the transform), recording the comparison policy's compile-time
   state at every function boundary (the static load-checking policy draws
   one random number per load site, in module order — the snapshots let a
   single function be re-transformed with exactly the per-site decisions a
   full rebuild would make);
2. a faulty build re-translates *only* the functions whose content hash
   differs from the pristine build (for campaign clones this is exactly the
   function containing the injected fault — every other function is the
   same object and is recognized by identity), whole, from its recorded
   policy state, and splices them into a copy-on-write clone of the cached
   transformed module (see :meth:`_retransform`).  Every output function
   (base and per-site) carries a *provenance stamp* — a digest of
   (transform config, policy pre-state, source content) that
   deterministically pins its text — which the compiled tier's code cache
   keys on directly (see ``repro.machine.compile._STAMP_CACHE``), so
   a site rebuilt as new objects — after the build table dropped its
   build — finds its compiled code without generating source;
3. re-transformed functions are memoized under
   ``(function name, content hash)`` — the transform configuration is fixed
   per compiler instance — so repeated compiles of the same faulty function
   run the translator at most once.  The key is built with
   :func:`repro.machine.compile.content_cache_key`, the same
   content-addressing discipline the compiled execution tier uses for its
   generated-code cache.

The result is **bit-identical** to a full rebuild: output functions are
declared with fresh register/label counters exactly as the full pass
declares them, function/global dict ordering (which fixes machine address
assignment) is preserved by in-place replacement, and the `main` stub is
regenerated whenever `main` itself changes.  What is *not* re-run per build
is whole-module verification — the pristine module is verified once per
content (by the build table, or here when constructed without
``pristine_fps``), each base transform once, and each incremental build
verifies only the re-transformed functions (verification cannot change
emitted code, only raise).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.module import Function, Module
from ..ir.printer import function_fingerprint
from ..ir.verifier import verify_function, verify_module
from ..machine.compile import content_cache_key
from .aug_types import ReplicationDesign
from .mds import MdsTransform
from .pipeline import DpmrBuild, DpmrCompiler
from .policies import ComparisonPolicy
from .sds import SdsTransform
from .transform import ENTRY_FUNCTION


@dataclass
class TransformCacheStats:
    """Aggregate hit/miss counters of one incremental compiler."""

    hits: int = 0
    misses: int = 0
    full_rebuilds: int = 0  # structure-mismatch fallbacks (never in campaigns)
    translated_instructions: int = 0  # source instructions re-translated by misses
    # Counters of the retired journal-replay path, kept because trace
    # readers report them; always 0.
    delta_splices: int = 0
    delta_refusals: int = 0
    replayed_instructions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: Replacement set for one re-transformed source function: the output
#: functions to splice, as (output name, function) pairs.
_Replacement = List[Tuple[str, Function]]


def _policy_fingerprint(policy) -> str:
    """Content digest of a comparison policy's *configuration*.

    Covers the concrete class plus every plain-data attribute (thresholds,
    probabilities, names); mutable machinery like RNG objects is excluded
    — their contribution to emitted text is pinned separately by the
    per-function pre-state digest."""
    h = hashlib.sha256()
    h.update(type(policy).__module__.encode())
    h.update(type(policy).__qualname__.encode())
    for key, value in sorted(vars(policy).items()):
        if isinstance(
            value, (str, int, float, bool, bytes, type(None), tuple, frozenset)
        ):
            h.update(f"{key}={value!r};".encode())
    return h.hexdigest()


def _transform_class(design: ReplicationDesign):
    return SdsTransform if design is ReplicationDesign.SDS else MdsTransform


def transform_digest(design: ReplicationDesign, policy: ComparisonPolicy) -> str:
    """Content digest of everything the DPMR transform reads of a
    configuration: the design and the comparison policy's configuration.

    The diversity transformation is not part of it — it only shapes the
    replica heap at run time — and neither is the policy's RNG state,
    which builds advance but
    :meth:`~repro.core.transform.BaseTransform.begin_module` resets.
    Equal digests therefore mean byte-identical transformed modules for
    the same source; the build table keys base transforms and faulty
    builds on it, and provenance stamps carry it."""
    h = hashlib.sha256()
    h.update(_transform_class(design).__qualname__.encode())
    h.update(repr(design).encode())
    h.update(_policy_fingerprint(policy).encode())
    return h.hexdigest()


class IncrementalDpmrCompiler:
    """Compiles fault-injected clones of one pristine module incrementally.

    Drop-in alternative to :meth:`DpmrCompiler.compile` for the campaign
    loop: ``compile(faulty)`` returns a :class:`DpmrBuild` whose module is
    byte-identical to ``DpmrCompiler.compile(faulty).module``, built in
    O(changed functions) instead of O(program).  Modules handed to
    :meth:`compile` must be derived from the pristine module (e.g. via
    ``Module.clone``); anything structurally incompatible (different
    function/global sets or signatures) falls back to a full rebuild.
    """

    def __init__(
        self,
        compiler: DpmrCompiler,
        pristine: Module,
        pristine_fps: Optional[Dict[str, str]] = None,
    ):
        if compiler.optimize or compiler.plan is not None:
            raise ValueError(
                "incremental recompilation supports neither the post-DPMR "
                "optimize stage nor module-bound replication plans; use "
                "DpmrCompiler.compile directly"
            )
        self.compiler = compiler
        self.pristine = pristine
        self.stats = TransformCacheStats()
        # ``pristine_fps`` maps every defined function of ``pristine`` to its
        # function_fingerprint; a caller passing it has verified ``pristine``
        # too (the build table does both once per content, for every
        # compiler of that content).  Without it, both happen here.
        if pristine_fps is None and compiler.verify:
            verify_module(pristine)
        self._pristine_fp: Dict[str, str] = (
            pristine_fps if pristine_fps is not None else {}
        )
        self._tx = _transform_class(compiler.design)(
            pristine, policy=compiler.policy, plan=None
        )
        # Base build: one full transform, with a policy-state snapshot taken
        # immediately before each function (module order = rebuild order).
        self._pre_states: Dict[str, object] = {}
        out = self._tx.begin_module()
        for fn in pristine.defined_functions():
            self._pre_states[fn.name] = compiler.policy.compile_state()
            self._tx.translate_function(fn)
        self._tx._generate_main_stub(out)
        if compiler.verify:
            verify_module(out)
        self.base_module = out
        self._memo: Dict[Tuple[str, str], _Replacement] = {}
        # Provenance stamps: the transformed text of any source function is
        # a pure function of (transform config, policy pre-state, source
        # content), so a digest of those three content-addresses the output
        # — the compiled tier keys generated code on it directly, so a
        # rebuilt function finds its code without generating source.
        self._stamp_cfg = transform_digest(compiler.design, compiler.policy)
        self._state_fp: Dict[str, str] = {}
        for fn in pristine.defined_functions():
            self._state_fp[fn.name] = hashlib.sha256(
                compiler.policy.compile_state_repr(self._pre_states[fn.name]).encode()
            ).hexdigest()
            out.functions[self._tx.out_name(fn.name)]._dpmr_stamp = (
                self._stamp_cfg,
                self._state_fp[fn.name],
                self._fingerprint_pristine(fn.name),
            )
        if ENTRY_FUNCTION in out.functions and ENTRY_FUNCTION in self._state_fp:
            out.functions[ENTRY_FUNCTION]._dpmr_stamp = (
                self._stamp_cfg,
                self._state_fp[ENTRY_FUNCTION],
                self._fingerprint_pristine(ENTRY_FUNCTION),
            )

    # -- public API -----------------------------------------------------

    def compile(self, module: Module) -> DpmrBuild:
        """Transform ``module``, reusing every cached unchanged function."""
        changed = self._changed_functions(module)
        if changed is None:
            self.stats.full_rebuilds += 1
            return self.compiler.compile(module)
        out = self.base_module.clone(mutable_functions=())
        hits = sum(1 for fn in module.defined_functions()) - len(changed)
        misses = 0
        for name, fingerprint in changed.items():
            memo_key = content_cache_key(name, fingerprint)
            replacement = self._memo.get(memo_key)
            if replacement is not None:
                hits += 1
            else:
                misses += 1
                replacement = self._retransform(module, out, name)
                self._memo[memo_key] = replacement
                stamp = (self._stamp_cfg, self._state_fp[name], fingerprint)
                for _, out_fn in replacement:
                    out_fn._dpmr_stamp = stamp
            for out_name, out_fn in replacement:
                if out_name in out.functions:
                    out.functions[out_name] = out_fn  # in place: keeps order
                else:  # pragma: no cover - declarations always pre-exist
                    out.add_function(out_fn)
        self.stats.hits += hits
        self.stats.misses += misses
        return DpmrBuild(
            out,
            self.compiler.design,
            self.compiler.policy,
            self.compiler.diversity,
            cache_hits=hits,
            cache_misses=misses,
        )

    # -- internals ------------------------------------------------------

    def _fingerprint_pristine(self, name: str) -> str:
        fp = self._pristine_fp.get(name)
        if fp is None:
            fp = self._pristine_fp[name] = function_fingerprint(
                self.pristine.functions[name]
            )
        return fp

    def _changed_functions(self, module: Module) -> Optional[Dict[str, str]]:
        """Map of changed defined functions → content hash.

        ``None`` means the module is not a per-function edit of the pristine
        module and needs a full rebuild.  Functions shared by identity with
        the pristine module (the common case for campaign clones) are
        recognized without hashing.
        """
        pristine = self.pristine
        if module.functions.keys() != pristine.functions.keys():
            return None
        if module.globals.keys() != pristine.globals.keys():
            return None
        for name, g in module.globals.items():
            pg = pristine.globals[name]
            if g is pg:
                continue
            if g.value_type != pg.value_type or g.initializer is not pg.initializer:
                return None
        changed: Dict[str, str] = {}
        for name, fn in module.functions.items():
            pfn = pristine.functions[name]
            if fn is pfn:
                continue
            if fn.is_external != pfn.is_external or fn.type != pfn.type:
                return None
            if fn.is_external:
                continue
            fp = function_fingerprint(fn)
            if fp != self._fingerprint_pristine(name):
                changed[name] = fp
        return changed

    def _retransform(
        self, module: Module, out: Module, name: str
    ) -> _Replacement:
        """Re-translate source function ``name`` exactly as a full rebuild
        of ``module`` would, splicing into ``out``."""
        tx = self._tx
        src_fn = module.functions[name]
        if self.compiler.verify:
            verify_function(src_fn, module)
        tx.src = module
        tx.out_module = out
        try:
            self.compiler.policy.restore_compile_state(self._pre_states[name])
            out_name = tx.out_name(name)
            out_fn = tx.fresh_declaration(src_fn)
            out.functions[out_name] = out_fn
            tx._translator_class()(tx, src_fn, out_fn).translate()
            self.stats.translated_instructions += sum(
                len(block.instructions) for block in src_fn.blocks
            )
            replacement: _Replacement = [(out_name, out_fn)]
            if name == ENTRY_FUNCTION and ENTRY_FUNCTION in out.functions:
                # The entry stub is derived from main's signature; rebuild it
                # so a rebuilt mainAug and its stub stay consistent.  The
                # stub is the last function in the base module, so delete +
                # re-append preserves dict order.
                del out.functions[ENTRY_FUNCTION]
                tx._generate_main_stub(out)
                replacement.append(
                    (ENTRY_FUNCTION, out.functions[ENTRY_FUNCTION])
                )
            if self.compiler.verify:
                for _, fn in replacement:
                    verify_function(fn, out)
            return replacement
        finally:
            tx.src = self.pristine
            tx.out_module = self.base_module
