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
2. a faulty build re-transforms *only* the functions whose content hash
   differs from the pristine build (for campaign clones this is exactly the
   function containing the injected fault — every other function is the
   same object and is recognized by identity), and splices them into a
   copy-on-write clone of the cached transformed module;
3. a changed function is rebuilt by the *delta transform*: the base build
   journals every translator step per source instruction, so the faulty
   rebuild replays the journal verbatim outside the fault diff and runs the
   translator only for the diff itself (see :meth:`_delta_retransform`) —
   per-site build cost stops scaling with function size.  Every output
   function (base and per-site) additionally carries a *provenance stamp*
   — a digest of (transform config, policy pre-state, source content) that
   deterministically pins its text — which the compiled tier's code cache
   keys on directly (see ``repro.machine.compile._STAMP_CACHE``), so
   repeat codegen for the same site skips structural delta planning;
4. re-transformed functions are memoized under
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

from ..ir.builder import IRBuilder
from ..ir.module import Function, Module
from ..ir.printer import function_fingerprint
from ..ir.verifier import verify_function, verify_module
from ..machine.codegen import _block_eq, _inst_eq
from ..machine.compile import content_cache_key, inline_runtime_enabled
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
    delta_splices: int = 0  # misses served by instruction-granular replay
    delta_refusals: int = 0  # misses that fell back to whole-function re-translation
    replayed_instructions: int = 0  # source instructions replayed from the journal
    translated_instructions: int = 0  # source instructions actually re-translated

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def delta_replay_rate(self) -> float:
        """Fraction of per-miss source instructions served by journal replay
        instead of the translator — the delta-transform hit rate."""
        total = self.replayed_instructions + self.translated_instructions
        return self.replayed_instructions / total if total else 0.0


#: Replacement set for one re-transformed source function: the output
#: functions to splice, as (output name, function) pairs.
_Replacement = List[Tuple[str, Function]]


# -- translation journals (instruction-granular delta transforms) ---------
#
# During the base build every translator step is journaled: per source
# instruction we record the translator's *pre*-state token — the output
# function's register/label counters, the cumulative count of load sites the
# comparison policy has been consulted for, and the builder's insertion
# block — plus the list of *events* translating it produced (instructions
# emitted into which output block, auxiliary blocks created, and
# vmap/rops/nsops/unreplicated bindings).  A faulty clone differs from the
# pristine function in a handful of instructions; everything outside the
# diff is replayed by applying the recorded events verbatim, and only the
# diff (plus any suffix whose counters no longer line up) goes through the
# translator.  Replay is bit-exact because translated output depends only on
# (a) the source instruction, (b) the counter/site token, and (c) the named
# bindings — all of which the resume checks compare for exact equality.


class _PolicyCounter:
    """Wraps a comparison policy, counting ``emit_load_check`` consultations
    (= compile-time state consumption sites)."""

    __slots__ = ("_policy", "draws")

    def __init__(self, policy):
        self._policy = policy
        self.draws = 0

    def emit_load_check(self, tx, loaded, replica_ptr) -> None:
        self.draws += 1
        self._policy.emit_load_check(tx, loaded, replica_ptr)

    def __getattr__(self, name):
        return getattr(self._policy, name)


class _JDict(dict):
    """Dict that journals ``__setitem__`` into the observer's event sink."""

    def __init__(self, seed, observer, tag):
        super().__init__(seed)
        self._obs = observer
        self._tag = tag

    def __setitem__(self, key, value):
        self._obs._events.append((self._tag, key, value))
        super().__setitem__(key, value)


class _JSet(set):
    """Set that journals ``add`` into the observer's event sink."""

    def __init__(self, seed, observer):
        super().__init__(seed)
        self._obs = observer

    def add(self, item):
        self._obs._events.append(("u", item, None))
        super().add(item)


class _BlockJournal:
    __slots__ = ("label", "records", "end")

    def __init__(self, label: str):
        self.label = label
        #: one record per source instruction:
        #: (pre_reg, pre_label, pre_sites, pre_block_label, events)
        self.records: List[Tuple[int, int, int, str, list]] = []
        #: state token after the block's last instruction (same 4 fields)
        self.end: Optional[Tuple[int, int, int, str]] = None


class _JournalObserver:
    """Observer for :meth:`FunctionTranslator.translate` that records the
    per-instruction journal of one base-build translation."""

    def __init__(self):
        self.blocks: List[_BlockJournal] = []
        self._tr = None
        self._counter = None
        self._events: list = []

    def attach(self, tr) -> None:
        self._tr = tr
        self._counter = _PolicyCounter(tr.policy)
        tr.policy = self._counter
        tr.vmap = _JDict(tr.vmap, self, "v")
        tr.rops = _JDict(tr.rops, self, "r")
        tr.nsops = _JDict(tr.nsops, self, "n")
        tr.unreplicated = _JSet(tr.unreplicated, self)
        builder = tr.builder
        orig_emit = builder.emit
        orig_new_block = builder.new_block

        def emit(instruction):
            self._events.append(("e", builder.block.label, instruction))
            return orig_emit(instruction)

        def new_block(label=None):
            blk = orig_new_block(label)
            self._events.append(("b", blk.label, None))
            return blk

        builder.emit = emit
        builder.new_block = new_block

    def _token(self) -> Tuple[int, int, int, str]:
        tr = self._tr
        out_fn = tr.out_fn
        return (
            out_fn._next_reg,
            out_fn._next_label,
            self._counter.draws,
            tr.builder.block.label,
        )

    def _close_block(self) -> None:
        if self.blocks:
            self.blocks[-1].end = self._token()

    def enter_block(self, block) -> None:
        self._close_block()
        self.blocks.append(_BlockJournal(block.label))

    def instruction(self, inst) -> None:
        self._events = []
        pre_reg, pre_label, pre_sites, pre_block = self._token()
        self.blocks[-1].records.append(
            (pre_reg, pre_label, pre_sites, pre_block, self._events)
        )

    def finish(self) -> None:
        self._close_block()


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


def _apply_events(events: list, out_fn: Function, tr) -> None:
    """Replay journal events: emissions, block creation, name bindings."""
    for tag, a, b in events:
        if tag == "e":
            out_fn.block(a).append(b)
        elif tag == "b":
            # explicit label: does not advance the auto-label counter (the
            # counters are re-synchronized from tokens at every mode switch)
            out_fn.add_block(a)
        elif tag == "v":
            tr.vmap[a] = b
        elif tag == "r":
            tr.rops[a] = b
        elif tag == "n":
            tr.nsops[a] = b
        else:  # "u"
            tr.unreplicated.add(a)


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
        # Instruction-granular delta transforms need (a) the runtime
        # specialization knob on (DPMR_INLINE_RT=0 restores whole-function
        # re-transforms) and (b) a policy whose per-site compile state can be
        # fast-forwarded: stateless, or one overriding advance_compile_state.
        self._journal_ok = inline_runtime_enabled() and (
            compiler.policy.compile_state() is None
            or type(compiler.policy).advance_compile_state
            is not ComparisonPolicy.advance_compile_state
        )
        self._journals: Dict[str, List[_BlockJournal]] = {}
        # Base build: one full transform, with a policy-state snapshot taken
        # immediately before each function (module order = rebuild order).
        self._pre_states: Dict[str, object] = {}
        out = self._tx.begin_module()
        for fn in pristine.defined_functions():
            self._pre_states[fn.name] = compiler.policy.compile_state()
            if self._journal_ok:
                out_fn = out.functions[self._tx.out_name(fn.name)]
                observer = _JournalObserver()
                self._tx._translator_class()(self._tx, fn, out_fn).translate(
                    observer
                )
                self._journals[fn.name] = observer.blocks
            else:
                self._tx.translate_function(fn)
        self._tx._generate_main_stub(out)
        if compiler.verify:
            verify_module(out)
        self.base_module = out
        self._memo: Dict[Tuple[str, str], _Replacement] = {}
        # Provenance stamps: the transformed text of any source function is
        # a pure function of (transform config, policy pre-state, source
        # content), so a digest of those three content-addresses the output
        # — the compiled tier keys generated code on it directly, skipping
        # structural delta planning.  Part of the runtime-inlining
        # pipeline: DPMR_INLINE_RT=0 disables stamping.
        self._stamp_cfg: Optional[str] = None
        self._state_fp: Dict[str, str] = {}
        if inline_runtime_enabled():
            self._stamp_cfg = transform_digest(compiler.design, compiler.policy)
            for fn in pristine.defined_functions():
                self._state_fp[fn.name] = hashlib.sha256(
                    repr(self._pre_states[fn.name]).encode()
                ).hexdigest()
                out.functions[self._tx.out_name(fn.name)]._dpmr_stamp = (
                    self._stamp_cfg,
                    self._state_fp[fn.name],
                    self._fingerprint_pristine(fn.name),
                )
            if (
                ENTRY_FUNCTION in out.functions
                and ENTRY_FUNCTION in self._state_fp
            ):
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
                replacement = self._delta_retransform(module, out, name)
                if replacement is not None:
                    self.stats.delta_splices += 1
                else:
                    self.stats.delta_refusals += 1
                    replacement = self._retransform(module, out, name)
                self._memo[memo_key] = replacement
                if self._stamp_cfg is not None:
                    stamp = (
                        self._stamp_cfg,
                        self._state_fp[name],
                        fingerprint,
                    )
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

    def _delta_retransform(
        self, module: Module, out: Module, name: str
    ) -> Optional[_Replacement]:
        """Instruction-granular sibling of :meth:`_retransform`.

        Rebuilds the output function by *replaying* the base build's journal
        for every source instruction outside the fault diff and running the
        translator only for the diff itself (plus any suffix whose
        register/label/site counters no longer line up exactly with the
        journal).  Returns None — caller falls back to the whole-function
        path — when no journal exists, the block structure changed, a resume
        precondition fails, or replay raises.
        """
        journal = self._journals.get(name)
        if journal is None:
            return None
        src_fn = module.functions[name]
        pfn = self.pristine.functions[name]
        if [b.label for b in src_fn.blocks] != [bj.label for bj in journal]:
            return None
        if self.compiler.verify:
            verify_function(src_fn, module)
        tx = self._tx
        policy = self.compiler.policy
        tx.src = module
        tx.out_module = out
        try:
            out_name = tx.out_name(name)
            out_fn = tx.fresh_declaration(src_fn)
            out.functions[out_name] = out_fn
            tr = tx._translator_class()(tx, src_fn, out_fn)
            counter = _PolicyCounter(policy)
            tr.policy = counter
            policy.restore_compile_state(self._pre_states[name])
            tr._bind_params()
            for block in src_fn.blocks:
                out_fn.add_block(f"o.{block.label}")
            tr.builder = IRBuilder(
                out_fn, out_fn.block(f"o.{src_fn.blocks[0].label}")
            )
            sites_advanced = 0
            replayed = translated = 0
            replay_mode = True
            for bj, sblock, pblock in zip(journal, src_fn.blocks, pfn.blocks):
                finsts, pinsts = sblock.instructions, pblock.instructions
                recs = bj.records
                if not replay_mode:
                    # real mode: resume replay at a block boundary only when
                    # the live counters/sites line up exactly with the journal
                    rec0 = recs[0] if recs else None
                    if (
                        rec0 is not None
                        and _block_eq(sblock, pblock)
                        and out_fn._next_reg == rec0[0]
                        and out_fn._next_label == rec0[1]
                        and sites_advanced + counter.draws == rec0[2]
                        and rec0[3] == f"o.{sblock.label}"
                    ):
                        for rec in recs:
                            _apply_events(rec[4], out_fn, tr)
                        replayed += len(recs)
                        replay_mode = True
                        continue
                    tr.builder.position_at_end(out_fn.block(f"o.{sblock.label}"))
                    for inst in finsts:
                        tr._translate_instruction(inst)
                    translated += len(finsts)
                    continue
                if _block_eq(sblock, pblock):
                    for rec in recs:
                        _apply_events(rec[4], out_fn, tr)
                    replayed += len(recs)
                    continue
                # divergent block: structural common prefix p / suffix s
                lf, lp = len(finsts), len(pinsts)
                p = 0
                while p < min(lf, lp) and _inst_eq(finsts[p], pinsts[p]):
                    p += 1
                s = 0
                while s < min(lf, lp) - p and _inst_eq(
                    finsts[lf - 1 - s], pinsts[lp - 1 - s]
                ):
                    s += 1
                for rec in recs[:p]:
                    _apply_events(rec[4], out_fn, tr)
                replayed += p
                # switch to real translation at the recorded pre-state token
                tok = recs[p][:4] if p < len(recs) else bj.end
                t_reg, t_label, t_sites, t_block = tok
                advance = t_sites - (sites_advanced + counter.draws)
                if advance < 0:  # pragma: no cover - tokens are monotonic
                    return None
                if advance:
                    policy.advance_compile_state(advance)
                    sites_advanced += advance
                out_fn._next_reg = t_reg
                out_fn._next_label = t_label
                tr.builder.position_at_end(out_fn.block(t_block))
                for inst in finsts[p : lf - s]:
                    tr._translate_instruction(inst)
                translated += lf - s - p
                if s:
                    # resume replay for the suffix only on exact counter/site
                    # agreement (replayed instructions carry the pristine
                    # build's register and block names verbatim)
                    rec = recs[lp - s]
                    if (
                        out_fn._next_reg == rec[0]
                        and out_fn._next_label == rec[1]
                        and sites_advanced + counter.draws == rec[2]
                        and tr.builder.block.label == rec[3]
                    ):
                        for r2 in recs[lp - s :]:
                            _apply_events(r2[4], out_fn, tr)
                        replayed += s
                        continue
                    for inst in finsts[lf - s :]:
                        tr._translate_instruction(inst)
                    translated += s
                replay_mode = False
            replacement: _Replacement = [(out_name, out_fn)]
            if name == ENTRY_FUNCTION and ENTRY_FUNCTION in out.functions:
                del out.functions[ENTRY_FUNCTION]
                tx._generate_main_stub(out)
                replacement.append(
                    (ENTRY_FUNCTION, out.functions[ENTRY_FUNCTION])
                )
            if self.compiler.verify:
                for _, fn in replacement:
                    verify_function(fn, out)
            self.stats.replayed_instructions += replayed
            self.stats.translated_instructions += translated
            return replacement
        except Exception:
            # any replay surprise falls back to the exact whole-function
            # path, which re-raises genuine translation errors
            return None
        finally:
            tx.src = self.pristine
            tx.out_module = self.base_module
