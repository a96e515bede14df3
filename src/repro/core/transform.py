"""The DPMR code transformation (Tables 2.6/2.7 and 4.3/4.4).

:class:`BaseTransform` drives a whole-module rewrite; the SDS and MDS
designs subclass it (:mod:`repro.core.sds`, :mod:`repro.core.mds`) to supply
the design-specific handling of pointers stored in memory.

Structure of the rewrite:

* every global ``g`` gains a replica ``g_r`` (and, under SDS, a shadow
  ``g_s``) with matching initializers;
* every defined function is re-declared with its augmented type; ``main`` is
  renamed ``mainAug`` and a fresh ``main`` stub replicates the command-line
  arguments before calling it (§3.1.1);
* every external function call is rerouted to an *external function wrapper*
  ``<name>_efw`` (§2.8) declared with the augmented type (plus any
  wrapper-specific leading parameters, e.g. ``qsort``'s shadow size,
  Fig. 3.3);
* instruction-by-instruction, original behaviour is mirrored onto replica
  (and shadow) state, with load checks emitted according to the configured
  state comparison policy and replica heap allocation routed through the
  diversity runtime (``dpmr_replica_malloc``/``dpmr_replica_free``).

Output blocks corresponding to source blocks are labeled ``o.<label>``;
blocks introduced by DPMR (branchy load checks, shadow-free null checks)
use fresh ``bb<n>`` labels.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Union

from ..ir import instructions as ins
from ..ir.builder import IRBuilder
from ..ir.module import Function, GlobalVariable, Module
from ..ir.types import (
    ArrayType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    Type,
    UnionType,
    VoidType,
    INT32,
    INT64,
    VOID,
    VOID_PTR,
    sizeof,
)
from ..ir.values import (
    ConstFloat,
    ConstInt,
    ConstNull,
    FunctionRef,
    GlobalRef,
    Register,
    Value,
)
from .aug_types import ReplicationDesign, TypeMaps
from .plan import FULL_REPLICATION, ReplicationPlan
from .policies import AllLoadsPolicy, ComparisonPolicy, StaticLoadCheckingPolicy
from .shadow_types import NSOP_FIELD, ROP_FIELD

ENTRY_FUNCTION = "main"
RENAMED_ENTRY = "mainAug"

#: dpmr runtime externals injected into every transformed module.
RUNTIME_EXTERNALS = {
    "dpmr_detect": FunctionType(VOID, [INT32]),
    "dpmr_replica_malloc": FunctionType(VOID_PTR, [INT64]),
    "dpmr_replica_free": FunctionType(VOID, [VOID_PTR]),
    "dpmr_argv_replica": FunctionType(VOID_PTR, [INT32, VOID_PTR]),
    "dpmr_argv_shadow": FunctionType(VOID_PTR, [INT32, VOID_PTR, VOID_PTR]),
}


class DpmrTransformError(Exception):
    """An input program violates the active design's restrictions (§2.9/§4.4)."""


class BaseTransform:
    """Module-level driver shared by the SDS and MDS designs."""

    design: ReplicationDesign

    def __init__(
        self,
        module: Module,
        policy: Optional[ComparisonPolicy] = None,
        plan: Optional[ReplicationPlan] = None,
    ):
        self.src = module
        self.policy = policy if policy is not None else AllLoadsPolicy()
        self.plan = plan if plan is not None else FULL_REPLICATION
        self.maps = TypeMaps(self.design)
        self.out_module: Optional[Module] = None
        self._fn_name_map: Dict[str, str] = {}

    @property
    def with_shadow(self) -> bool:
        return self.design is ReplicationDesign.SDS

    # -- driver ------------------------------------------------------------

    def run(self) -> Module:
        out = self.begin_module()
        for fn in self.src.defined_functions():
            self.translate_function(fn)
        self._generate_main_stub(out)
        return out

    def begin_module(self) -> Module:
        """Module-level setup: globals, declarations, runtime externals.

        Split out of :meth:`run` so the incremental recompiler can drive
        function translation itself (snapshotting policy state between
        functions).
        """
        out = Module(f"{self.src.name}.{self.design.value}")
        self.out_module = out
        if isinstance(self.policy, StaticLoadCheckingPolicy):
            self.policy.reset()
        self.policy.setup_module(out)
        self._declare_runtime_externals(out)
        self._transform_globals(out)
        self._declare_functions(out)
        return out

    def translate_function(self, fn: Function) -> Function:
        """Translate one defined source function into its declared slot."""
        out_fn = self.out_module.functions[self._fn_name_map[fn.name]]
        self._translator_class()(self, fn, out_fn).translate()
        return out_fn

    def out_name(self, src_name: str) -> str:
        """Output-module name of a source function (wrapper/rename aware)."""
        return self._fn_name_map[src_name]

    def fresh_declaration(self, fn: Function) -> Function:
        """A new, empty output function declared exactly as
        :meth:`_declare_functions` would declare ``fn`` — fresh
        register/label counters included, so re-translating into it yields
        byte-identical code to a full-module rebuild."""
        name = RENAMED_ENTRY if fn.name == ENTRY_FUNCTION else fn.name
        aug = self.maps.aug.aug_function_type(fn.type)
        return Function(name, aug, param_names=self._param_names(fn))

    def _translator_class(self):
        raise NotImplementedError

    # -- module pieces -------------------------------------------------------

    def _declare_runtime_externals(self, out: Module) -> None:
        for name, fn_type in RUNTIME_EXTERNALS.items():
            out.add_function(Function(name, fn_type, is_external=True))

    def _transform_globals(self, out: Module) -> None:
        maps = self.maps
        for g in self.src.globals.values():
            at = maps.at(g.value_type)
            out.add_global(GlobalVariable(g.name, at, g.initializer))
            out.add_global(
                GlobalVariable(
                    f"{g.name}_r", at, self._replica_initializer(g.initializer)
                )
            )
            if self.with_shadow:
                sat = maps.sat(g.value_type)
                if sat is not None:
                    out.add_global(
                        GlobalVariable(
                            f"{g.name}_s",
                            sat,
                            self._shadow_initializer(g.value_type, g.initializer),
                        )
                    )

    def _replica_initializer(self, init):
        """Initializer for a replica global (design-specific for pointers)."""
        raise NotImplementedError

    def _shadow_initializer(self, value_type: Type, init):
        """Initializer for a shadow global (SDS only)."""
        if init is None:
            return None
        return _shadow_init_walk(self, value_type, init)

    def _declare_functions(self, out: Module) -> None:
        from .wrappers import get_wrapper_spec

        for fn in self.src.functions.values():
            if fn.is_external:
                if fn.name in RUNTIME_EXTERNALS:
                    raise DpmrTransformError(
                        f"input program uses reserved name {fn.name}"
                    )
                spec = get_wrapper_spec(fn.name)
                wrapper_name = f"{fn.name}_efw"
                wrapper_type = spec.wrapper_type(self, fn.type)
                out.add_function(
                    Function(wrapper_name, wrapper_type, is_external=True)
                )
                self._fn_name_map[fn.name] = wrapper_name
            else:
                name = RENAMED_ENTRY if fn.name == ENTRY_FUNCTION else fn.name
                aug = self.maps.aug.aug_function_type(fn.type)
                out.add_function(
                    Function(name, aug, param_names=self._param_names(fn))
                )
                self._fn_name_map[fn.name] = name

    def _param_names(self, fn: Function) -> List[str]:
        names: List[str] = []
        ret = self.maps.at(fn.type.ret)
        if isinstance(ret, PointerType):
            names.append("rvSop" if self.with_shadow else "rvRopPtr")
        for p in fn.params:
            names.append(p.name)
            if isinstance(self.maps.at(p.type), PointerType):
                names.append(f"{p.name}_r")
                if self.with_shadow:
                    names.append(f"{p.name}_s")
        return names

    # -- main stub (§3.1.1) ----------------------------------------------------

    def _generate_main_stub(self, out: Module) -> None:
        if ENTRY_FUNCTION not in self.src.functions:
            return
        orig_main = self.src.functions[ENTRY_FUNCTION]
        if orig_main.is_external:
            return
        aug_main = out.functions[RENAMED_ENTRY]
        stub = Function(ENTRY_FUNCTION, orig_main.type,
                        [p.name for p in orig_main.params])
        out.add_function(stub)
        b = IRBuilder(stub)
        if not orig_main.params:
            r = None
            if not isinstance(orig_main.type.ret, VoidType):
                r = Register("mainrv", self.maps.at(orig_main.type.ret))
            b.emit(ins.Call(r, RENAMED_ENTRY, []))
            b.ret(r)
            return
        if len(orig_main.params) != 2 or not isinstance(
            orig_main.params[1].type, PointerType
        ):
            raise DpmrTransformError(
                f"unsupported main signature {orig_main.type}"
            )
        argc, argv = stub.params
        argv_void = b.ptr_cast(argv, VOID, hint="dpmr.av")
        raw_r = Register("dpmr.argvr", VOID_PTR)
        b.emit(ins.Call(raw_r, "dpmr_argv_replica", [argc, argv_void]))
        argv_r = b.ptr_cast(raw_r, argv.type.pointee, hint="dpmr.avr")
        args: List[Value] = [argc, argv, argv_r]
        if self.with_shadow:
            raw_s = Register("dpmr.argvs", VOID_PTR)
            b.emit(ins.Call(raw_s, "dpmr_argv_shadow", [argc, argv_void, raw_r]))
            spt = self.maps.aug.spt(argv.type)
            argv_s = b.ptr_cast(raw_s, spt.pointee, hint="dpmr.avs")
            args.append(argv_s)
        r = None
        if not isinstance(orig_main.type.ret, VoidType):
            r = Register("mainrv", self.maps.at(orig_main.type.ret))
        b.emit(ins.Call(r, RENAMED_ENTRY, args))
        b.ret(r)

    # -- hooks implemented by the designs -----------------------------------------

    def makes_pointers_comparable(self) -> bool:
        """SDS stores identical pointers in replica memory; MDS does not."""
        raise NotImplementedError


def _shadow_init_walk(tx: BaseTransform, ty: Type, init):
    """Build a shadow initializer mirroring :func:`ShadowTypeBuilder` rules."""
    maps = tx.maps
    if isinstance(ty, PointerType):
        if init is None or init == 0:
            return [None, None]
        if isinstance(init, GlobalRef):
            target = init.name
            rop = GlobalRef(f"{target}_r", init.type)
            nsop = None
            if f"{target}_s" in tx.out_module.globals:
                nsop = tx.out_module.globals[f"{target}_s"].ref()
            return [rop, nsop]
        if isinstance(init, FunctionRef):
            return [init, None]
        raise DpmrTransformError(f"bad pointer initializer {init!r}")
    if isinstance(ty, ArrayType):
        if maps.sat(ty.element) is None:
            return None
        items = init if isinstance(init, list) else []
        return [_shadow_init_walk(tx, ty.element, item) for item in items]
    if isinstance(ty, StructType):
        out = []
        for i, f in enumerate(ty.fields):
            if maps.sat(f) is None:
                continue
            item = init[i] if isinstance(init, list) and i < len(init) else None
            out.append(_shadow_init_walk(tx, f, item))
        return out
    if isinstance(ty, UnionType):
        return None
    return None


class FunctionTranslator:
    """Translates one source function into its augmented counterpart."""

    def __init__(self, parent: BaseTransform, src_fn: Function, out_fn: Function):
        self.parent = parent
        self.src_fn = src_fn
        self.out_fn = out_fn
        self.maps = parent.maps
        self.policy = parent.policy
        self.plan = parent.plan
        self.out_module = parent.out_module
        self.vmap: Dict[str, Value] = {}
        self.rops: Dict[str, Value] = {}
        self.nsops: Dict[str, Value] = {}
        self.builder: Optional[IRBuilder] = None
        self.rv_param: Optional[Register] = None
        #: allocation results known to alias their replica (Ch. 5 plans)
        self.unreplicated: set = set()

    @property
    def with_shadow(self) -> bool:
        return self.parent.with_shadow

    # -- setup ------------------------------------------------------------

    def translate(self) -> None:
        """Translate the whole source function."""
        self._bind_params()
        for block in self.src_fn.blocks:
            self.out_fn.add_block(f"o.{block.label}")
        self.builder = IRBuilder(self.out_fn, self.out_fn.block(f"o.{self.src_fn.blocks[0].label}"))
        for block in self.src_fn.blocks:
            self.builder.position_at_end(self.out_fn.block(f"o.{block.label}"))
            for inst in block.instructions:
                self._translate_instruction(inst)

    def _bind_params(self) -> None:
        out_params = list(self.out_fn.params)
        idx = 0
        ret = self.maps.at(self.src_fn.type.ret)
        if isinstance(ret, PointerType):
            self.rv_param = out_params[0]
            idx = 1
        for p in self.src_fn.params:
            new_p = out_params[idx]
            idx += 1
            self.vmap[p.name] = new_p
            if isinstance(new_p.type, PointerType):
                self.rops[p.name] = out_params[idx]
                idx += 1
                if self.with_shadow:
                    self.nsops[p.name] = out_params[idx]
                    idx += 1

    # -- operand mapping -------------------------------------------------------

    def val(self, v: Optional[Value]) -> Optional[Value]:
        if v is None:
            return None
        if isinstance(v, Register):
            try:
                return self.vmap[v.name]
            except KeyError:
                raise DpmrTransformError(
                    f"{self.src_fn.name}: unmapped register {v}"
                ) from None
        if isinstance(v, (ConstInt, ConstFloat)):
            return v
        if isinstance(v, ConstNull):
            return ConstNull(PointerType(self.maps.at(v.type.pointee)))
        if isinstance(v, GlobalRef):
            return self.out_module.globals[v.name].ref()
        if isinstance(v, FunctionRef):
            name = self.parent._fn_name_map[v.name]
            return self.out_module.functions[name].ref()
        raise DpmrTransformError(f"bad operand {v!r}")

    def rop(self, v: Value) -> Value:
        if isinstance(v, Register):
            try:
                return self.rops[v.name]
            except KeyError:
                raise DpmrTransformError(
                    f"{self.src_fn.name}: pointer register {v} has no ROP "
                    "(restriction violation?)"
                ) from None
        if isinstance(v, ConstNull):
            return self.val(v)
        if isinstance(v, GlobalRef):
            return self.out_module.globals[f"{v.name}_r"].ref()
        if isinstance(v, FunctionRef):
            return self.val(v)
        raise DpmrTransformError(f"no ROP for operand {v!r}")

    def nsop(self, v: Value) -> Value:
        assert self.with_shadow
        if isinstance(v, Register):
            try:
                return self.nsops[v.name]
            except KeyError:
                raise DpmrTransformError(
                    f"{self.src_fn.name}: pointer register {v} has no NSOP"
                ) from None
        if isinstance(v, ConstNull):
            spt = self.maps.aug.spt(PointerType(self.maps.at(v.type.pointee)))
            return ConstNull(spt if isinstance(spt, PointerType) else VOID_PTR)
        if isinstance(v, GlobalRef):
            name = f"{v.name}_s"
            if name in self.out_module.globals:
                return self.out_module.globals[name].ref()
            return ConstNull(VOID_PTR)
        if isinstance(v, FunctionRef):
            return ConstNull(VOID_PTR)
        raise DpmrTransformError(f"no NSOP for operand {v!r}")

    # -- emission helpers --------------------------------------------------------

    def emit(self, inst: ins.Instruction, origin: Optional[ins.Instruction] = None):
        if origin is not None and origin.fault_site is not None:
            inst.fault_site = origin.fault_site
        self.builder.emit(inst)
        return inst

    def new_named(self, name: str, ty: Type) -> Register:
        return Register(name, ty)

    @contextmanager
    def aux_if(self, cond: Value):
        with self.builder.if_then(cond):
            yield

    def coerce_ptr(self, v: Value, want: PointerType) -> Value:
        """Insert a ptrcast when pointer types differ (generic-type slots)."""
        if v.type == want:
            return v
        if isinstance(v, ConstNull):
            return ConstNull(want)
        if isinstance(v.type, PointerType) and isinstance(want, PointerType):
            return self.builder.ptr_cast(v, want.pointee, hint="dpmr.cz")
        raise DpmrTransformError(f"cannot coerce {v.type} to {want}")

    def emit_compare_and_detect(self, loaded: Register, replica_ptr: Value, code: int = 1) -> None:
        """``assert(x == *p_r)`` lowered to a branch + ``dpmr_detect`` call."""
        b = self.builder
        rp = self.coerce_ptr(replica_ptr, PointerType(loaded.type))
        replica_val = b.load(rp, hint="dpmr.rv")
        differs = b.cmp("ne", loaded, replica_val, hint="dpmr.df")
        with b.if_then(differs):
            b.emit(ins.Call(None, "dpmr_detect", [ConstInt(INT32, code)]))
            b.unreachable()

    # -- instruction dispatch ----------------------------------------------------

    def _translate_instruction(self, inst: ins.Instruction) -> None:
        name = _HANDLERS.get(type(inst))
        if name is None:
            raise DpmrTransformError(f"no handler for {type(inst).__name__}")
        getattr(self, name)(inst)

    # -- straight-line value ops --------------------------------------------------

    def _tx_binop(self, i: ins.BinOp) -> None:
        r = self.new_named(i.result.name, self.maps.at(i.result.type))
        self.vmap[i.result.name] = r
        self.emit(ins.BinOp(r, i.op, self.val(i.lhs), self.val(i.rhs)), i)

    def _tx_cmp(self, i: ins.Cmp) -> None:
        r = self.new_named(i.result.name, i.result.type)
        self.vmap[i.result.name] = r
        self.emit(ins.Cmp(r, i.op, self.val(i.lhs), self.val(i.rhs)), i)

    def _tx_numcast(self, i: ins.NumCast) -> None:
        r = self.new_named(i.result.name, i.result.type)
        self.vmap[i.result.name] = r
        self.emit(ins.NumCast(r, self.val(i.value)), i)

    # -- memory allocation ----------------------------------------------------------

    def _alloc_result_type(self, ty: Type, count: Optional[Value]) -> PointerType:
        if count is not None:
            return PointerType(ArrayType(ty, None))
        return PointerType(ty)

    def _tx_alloca(self, i: ins.Alloca) -> None:
        at = self.maps.at(i.allocated_type)
        count = self.val(i.count)
        p = self.new_named(i.result.name, self._alloc_result_type(at, count))
        self.vmap[i.result.name] = p
        self.emit(ins.Alloca(p, at, count), i)
        if not self.plan.replicate_alloc(i):
            self._bind_unreplicated(i.result.name, p)
            return
        p_r = self.new_named(f"{i.result.name}_r", p.type)
        self.rops[i.result.name] = p_r
        self.emit(ins.Alloca(p_r, at, count), i)
        if self.with_shadow:
            self._emit_shadow_alloc(i, at, count, stack=True)

    def _tx_malloc(self, i: ins.Malloc) -> None:
        at = self.maps.at(i.allocated_type)
        count = self.val(i.count)
        p = self.new_named(i.result.name, self._alloc_result_type(at, count))
        self.vmap[i.result.name] = p
        self.emit(ins.Malloc(p, at, count), i)
        if not self.plan.replicate_alloc(i):
            self._bind_unreplicated(i.result.name, p)
            return
        size = self._emit_size(at, count)
        raw = self.builder.function.new_register(VOID_PTR, "dpmr.rm")
        self.emit(ins.Call(raw, "dpmr_replica_malloc", [size]), i)
        p_r = self.new_named(f"{i.result.name}_r", p.type)
        self.rops[i.result.name] = p_r
        self.emit(ins.PtrCast(p_r, raw), i)
        if self.with_shadow:
            self._emit_shadow_alloc(i, at, count, stack=False)

    def _bind_unreplicated(self, name: str, p: Register) -> None:
        """Chapter-5 refinement: the 'replica' aliases the application object."""
        self.rops[name] = p
        self.unreplicated.add(name)
        if self.with_shadow:
            self.nsops[name] = ConstNull(VOID_PTR)

    def _emit_size(self, at: Type, count: Optional[Value]) -> Value:
        unit = sizeof(at)
        if count is None:
            return ConstInt(INT64, unit)
        b = self.builder
        c = count
        if isinstance(c.type, IntType) and c.type.bits != 64:
            c = b.num_cast(c, INT64, hint="dpmr.sz")
        return b.mul(c, ConstInt(INT64, unit))

    def _emit_shadow_alloc(self, i, at: Type, count: Optional[Value], stack: bool) -> None:
        sat = self.maps.sat(at)
        name = i.result.name
        if sat is None:
            self.nsops[name] = ConstNull(VOID_PTR)
            return
        p_s = self.new_named(f"{name}_s", self._alloc_result_type(sat, count))
        self.nsops[name] = p_s
        ctor = ins.Alloca if stack else ins.Malloc
        self.emit(ctor(p_s, sat, count), i)

    def _tx_free(self, i: ins.Free) -> None:
        self.emit(ins.Free(self.val(i.pointer)), i)
        if not self.plan.mirror_free(i):
            return
        if isinstance(i.pointer, Register) and i.pointer.name in self.unreplicated:
            return
        b = self.builder
        rp = self.coerce_ptr(self.rop(i.pointer), VOID_PTR)
        self.emit(ins.Call(None, "dpmr_replica_free", [rp]), i)
        if self.with_shadow:
            ps = self.nsop(i.pointer)
            if isinstance(ps, ConstNull):
                return
            nonnull = b.cmp("ne", ps, ConstNull(ps.type), hint="dpmr.fz")
            with self.aux_if(nonnull):
                self.emit(ins.Free(ps), i)

    # -- loads and stores (design-specific pointer handling) --------------------------

    def _tx_load(self, i: ins.Load) -> None:
        raise NotImplementedError

    def _tx_store(self, i: ins.Store) -> None:
        raise NotImplementedError

    # -- addressing ----------------------------------------------------------------

    def _tx_field_addr(self, i: ins.FieldAddr) -> None:
        p = self.val(i.pointer)
        struct = p.type.pointee
        assert isinstance(struct, StructType)
        rty = PointerType(struct.fields[i.index])
        x = self.new_named(i.result.name, rty)
        self.vmap[i.result.name] = x
        self.emit(ins.FieldAddr(x, p, i.index), i)
        x_r = self.new_named(f"{i.result.name}_r", rty)
        self.rops[i.result.name] = x_r
        self.emit(ins.FieldAddr(x_r, self.rop(i.pointer), i.index), i)
        if self.with_shadow:
            self._shadow_field_addr(i, struct)

    def _shadow_field_addr(self, i: ins.FieldAddr, struct: StructType) -> None:
        name = i.result.name
        field_sat = self.maps.shadow.shadow_type(struct.fields[i.index])
        if field_sat is None:
            self.nsops[name] = ConstNull(VOID_PTR)
            return
        ps = self.nsop(i.pointer)
        if isinstance(ps, ConstNull):
            raise DpmrTransformError(
                f"{self.src_fn.name}: field {i.index} of {struct} needs shadow "
                "addressing but the base pointer has no shadow (SDS restriction)"
            )
        phi = self.maps.shadow.shadow_field_index(struct, i.index)
        x_s = self.new_named(f"{name}_s", PointerType(field_sat))
        self.nsops[name] = x_s
        self.emit(ins.FieldAddr(x_s, ps, phi), i)

    def _tx_elem_addr(self, i: ins.ElemAddr) -> None:
        p = self.val(i.pointer)
        arr = p.type.pointee
        assert isinstance(arr, ArrayType)
        rty = PointerType(arr.element)
        idx = self.val(i.index)
        x = self.new_named(i.result.name, rty)
        self.vmap[i.result.name] = x
        self.emit(ins.ElemAddr(x, p, idx), i)
        x_r = self.new_named(f"{i.result.name}_r", rty)
        self.rops[i.result.name] = x_r
        self.emit(ins.ElemAddr(x_r, self.rop(i.pointer), idx), i)
        if self.with_shadow:
            self._shadow_elem_addr(i, arr, idx)

    def _shadow_elem_addr(self, i: ins.ElemAddr, arr: ArrayType, idx: Value) -> None:
        name = i.result.name
        elem_sat = self.maps.shadow.shadow_type(arr.element)
        if elem_sat is None:
            self.nsops[name] = ConstNull(VOID_PTR)
            return
        ps = self.nsop(i.pointer)
        if isinstance(ps, ConstNull):
            raise DpmrTransformError(
                f"{self.src_fn.name}: array of {arr.element} needs shadow "
                "addressing but the base pointer has no shadow (SDS restriction)"
            )
        x_s = self.new_named(f"{name}_s", PointerType(elem_sat))
        self.nsops[name] = x_s
        self.emit(ins.ElemAddr(x_s, ps, idx), i)

    # -- casts ---------------------------------------------------------------------

    def _tx_ptr_cast(self, i: ins.PtrCast) -> None:
        target = self.maps.at(i.result.type.pointee)
        q = self.new_named(i.result.name, PointerType(target))
        self.vmap[i.result.name] = q
        self.emit(ins.PtrCast(q, self.val(i.pointer)), i)
        q_r = self.new_named(f"{i.result.name}_r", q.type)
        self.rops[i.result.name] = q_r
        self.emit(ins.PtrCast(q_r, self.rop(i.pointer)), i)
        if isinstance(i.pointer, Register) and i.pointer.name in self.unreplicated:
            self.unreplicated.add(i.result.name)
        if self.with_shadow:
            self._shadow_ptr_cast(i, target)

    def _shadow_ptr_cast(self, i: ins.PtrCast, target: Type) -> None:
        name = i.result.name
        sat = self.maps.shadow.shadow_type(target)
        ps = self.nsop(i.pointer)
        want = PointerType(sat) if sat is not None else VOID_PTR
        if isinstance(ps, ConstNull):
            self.nsops[name] = ConstNull(want)
            return
        q_s = self.new_named(f"{name}_s", want)
        self.nsops[name] = q_s
        self.emit(ins.PtrCast(q_s, ps), i)

    def _tx_ptr_to_int(self, i: ins.PtrToInt) -> None:
        r = self.new_named(i.result.name, i.result.type)
        self.vmap[i.result.name] = r
        self.emit(ins.PtrToInt(r, self.val(i.pointer)), i)

    def _tx_int_to_ptr(self, i: ins.IntToPtr) -> None:
        if not self.plan.allows_int_to_pointer():
            raise DpmrTransformError(
                "int-to-pointer casts are not allowed under "
                f"{self.parent.design.value.upper()} (§2.9/§4.4); use the DSA "
                "scope-expansion plan (Ch. 5)"
            )
        target = self.maps.at(i.result.type.pointee)
        q = self.new_named(i.result.name, PointerType(target))
        self.vmap[i.result.name] = q
        self.emit(ins.IntToPtr(q, self.val(i.value)), i)
        # The resulting pointer denotes non-replicated memory (DSA marks its
        # node unknown); its "replica" aliases the application object.
        self.rops[i.result.name] = q
        self.unreplicated.add(i.result.name)
        if self.with_shadow:
            self.nsops[i.result.name] = ConstNull(VOID_PTR)

    def _tx_func_addr(self, i: ins.FuncAddr) -> None:
        name = self.parent._fn_name_map[i.function_name]
        fn_ty = self.out_module.functions[name].type
        x = self.new_named(i.result.name, PointerType(fn_ty))
        self.vmap[i.result.name] = x
        self.emit(ins.FuncAddr(x, name), i)
        x_r = self.new_named(f"{i.result.name}_r", x.type)
        self.rops[i.result.name] = x_r
        self.emit(ins.FuncAddr(x_r, name), i)
        if self.with_shadow:
            self.nsops[i.result.name] = ConstNull(VOID_PTR)

    # -- calls and returns ------------------------------------------------------------

    def _tx_call(self, i: ins.Call) -> None:
        from .wrappers import get_wrapper_spec

        extras: List[Value] = []
        if i.is_direct:
            src_fn = self.parent.src.functions.get(i.callee)
            if src_fn is None:
                raise DpmrTransformError(f"call to unknown function {i.callee}")
            orig_type = src_fn.type
            callee: Union[str, Value] = self.parent._fn_name_map[i.callee]
            if src_fn.is_external:
                spec = get_wrapper_spec(i.callee)
                extras = spec.extra_args(self, i)
        else:
            callee_val = self.val(i.callee)
            orig_fn_type = i.callee.type.pointee
            orig_type = orig_fn_type
            callee = callee_val
        args: List[Value] = list(extras)
        rv_slot: Optional[Register] = None
        ret_at = self.maps.at(orig_type.ret)
        if isinstance(ret_at, PointerType):
            slot_ty = self._return_slot_pointee(ret_at)
            rv_slot = self.builder.alloca(slot_ty, hint="dpmr.rvs")
            args.append(rv_slot)
        for a in i.args:
            args.append(self.val(a))
            if isinstance(self.maps.at(a.type), PointerType):
                args.append(self.rop(a))
                if self.with_shadow:
                    args.append(self.nsop(a))
        result: Optional[Register] = None
        if i.result is not None:
            result = self.new_named(i.result.name, self.maps.at(i.result.type))
            self.vmap[i.result.name] = result
        self.emit(ins.Call(result, callee, args), i)
        if rv_slot is not None and i.result is not None:
            self._bind_returned_pointer(i.result.name, rv_slot)

    def _return_slot_pointee(self, ret_at: PointerType) -> Type:
        raise NotImplementedError

    def _bind_returned_pointer(self, name: str, rv_slot: Register) -> None:
        raise NotImplementedError

    def _tx_ret(self, i: ins.Ret) -> None:
        if i.value is not None and isinstance(self.maps.at(i.value.type), PointerType):
            self._store_returned_pointer(i)
        self.emit(ins.Ret(self.val(i.value)), i)

    def _store_returned_pointer(self, i: ins.Ret) -> None:
        raise NotImplementedError

    # -- control flow -----------------------------------------------------------------

    def _tx_jump(self, i: ins.Jump) -> None:
        self.emit(ins.Jump(f"o.{i.target}"), i)

    def _tx_branch(self, i: ins.Branch) -> None:
        self.emit(
            ins.Branch(self.val(i.cond), f"o.{i.then_target}", f"o.{i.else_target}"), i
        )

    def _tx_unreachable(self, i: ins.Unreachable) -> None:
        self.emit(ins.Unreachable(), i)


_HANDLERS = {
    ins.BinOp: "_tx_binop",
    ins.Cmp: "_tx_cmp",
    ins.NumCast: "_tx_numcast",
    ins.Alloca: "_tx_alloca",
    ins.Malloc: "_tx_malloc",
    ins.Free: "_tx_free",
    ins.Load: "_tx_load",
    ins.Store: "_tx_store",
    ins.FieldAddr: "_tx_field_addr",
    ins.ElemAddr: "_tx_elem_addr",
    ins.PtrCast: "_tx_ptr_cast",
    ins.PtrToInt: "_tx_ptr_to_int",
    ins.IntToPtr: "_tx_int_to_ptr",
    ins.FuncAddr: "_tx_func_addr",
    ins.Call: "_tx_call",
    ins.Ret: "_tx_ret",
    ins.Jump: "_tx_jump",
    ins.Branch: "_tx_branch",
    ins.Unreachable: "_tx_unreachable",
}
