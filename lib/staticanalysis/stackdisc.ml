(* Stack-discipline / return-integrity pass.

   Two cooperating analyses, both instances of the Fixpoint engine:

   - [native]: classic stack-height tracking over the *original* program's
     CFG.  The height lattice is flat (Bot < Known k < Top); a function
     whose joined height at ret/tail sites is Known k <> 0 is definitely
     unbalanced (its ret pops garbage instead of the return address), and
     every call site targeting such a function is flagged too — the
     interprocedural step ropcheck's per-chain walk has no view of.

   - [chain]: abstract interpretation of each rewritten function's ROP
     chain, tracking the rewriter's *virtual* stack machinery, which
     ropcheck deliberately does not model.  The state is the virtual stack
     pointer's offset from its entry value ([delta], held in the ss frame
     cell), the ss frame index offset ([idx], ss[0] relative to entry), and
     a 16-register abstract file distinguishing the values the templates
     route stack addresses through:

       Cst v        known constant (pops of immediates, gadget addresses)
       CellPtr k    ss + ss[0]_entry + k  — address of a frame cell
       VspVal k     entry vsp + k         — a loaded virtual stack pointer
       Disps ts     a popped displacement slot; ts are label offsets

     The discipline being checked: at every stack unswitch
     (mov/xchg rsp, [cell]) the chain must read the *entry* frame cell
     (CellPtr 0) with delta = 0 — the virtual stack balanced — and at the
     epilogue's unswitch the frame index must have been released exactly
     once (idx = -8).  An unbalanced chain epilogue returns into the
     caller with a skewed native stack, which no linear slot walk can
     notice because every individual slot still checks out.

   Separation assumption (documented, not checked here): program stores go
   through VspVal or unknown pointers and never alias the ss array, the
   spill slots or the chain itself; ropcheck's layout pass keeps those
   regions disjoint by construction. *)

open X86.Isa
module R = Analysis.Regset
module A = Ropc.Audit
module F = Verify.Finding
module I = Verify.Index

(* --- flat int lattice ----------------------------------------------------- *)

type v = Bot | Known of int | Top

let v_join a b =
  match a, b with
  | Bot, x | x, Bot -> x
  | Known a', Known b' when a' = b' -> a
  | _ -> Top

let v_add a k = match a with Known x -> Known (x + k) | v -> v

let v_str = function
  | Bot -> "unreached"
  | Known k -> Printf.sprintf "%+d" k
  | Top -> "unknown"

(* ========================================================================== *)
(* Native pass: stack height over the original CFG                            *)
(* ========================================================================== *)

module Native_dom = struct
  type t = { h : v; rbp : v }
  let equal (a : t) b = a = b
  let join a b = { h = v_join a.h b.h; rbp = v_join a.rbp b.rbp }
  let widen _old joined = joined   (* flat lattice: finite height *)
end

module Nfix = Fixpoint.Make (Fixpoint.Int64_node) (Native_dom)

(* Height convention: h = entry_rsp - current_rsp, so push => h += 8 and a
   ret is well-formed iff h = 0 (rsp points at the return address). *)
let native_instr (st : Native_dom.t) (i : instr) : Native_dom.t =
  match i with
  | Push _ -> { st with h = v_add st.h 8 }
  | Pop (Reg RSP) -> { st with h = Top }
  | Pop (Reg RBP) -> { h = v_add st.h (-8); rbp = Top }
  | Pop _ -> { st with h = v_add st.h (-8) }
  | Alu (Sub, W64, Reg RSP, Imm k) -> { st with h = v_add st.h (Int64.to_int k) }
  | Alu (Add, W64, Reg RSP, Imm k) -> { st with h = v_add st.h (- Int64.to_int k) }
  | Mov (W64, Reg RBP, Reg RSP) -> { st with rbp = st.h }
  | Mov (W64, Reg RSP, Reg RBP) -> { st with h = st.rbp }
  | Lea (RSP, { base = Some RSP; index = None; disp }) ->
    { st with h = v_add st.h (- Int64.to_int disp) }
  | Leave -> { h = v_add st.rbp (-8); rbp = Top }
  | Call _ -> st   (* assume balanced; unbalanced callees flagged per site *)
  | i ->
    let _, defs = Analysis.Reguse.def_use i in
    { h = (if R.mem_reg defs RSP then Top else st.h);
      rbp = (if R.mem_reg defs RBP then Top else st.rbp) }

type native_func = {
  nf_name : string;
  nf_addr : int64;
  nf_size : int;
  nf_ret_height : v;                      (* joined height at ret/tail sites *)
  nf_calls : (int64 * int64) list;        (* site addr, resolved target *)
  nf_findings : F.t list;
  nf_stats : Fixpoint.stats option;
}

let native_func (img : Image.t) (sym : Image.symbol) : native_func =
  let name = sym.Image.sym_name in
  let fail msg =
    { nf_name = name; nf_addr = sym.Image.sym_addr;
      nf_size = sym.Image.sym_size; nf_ret_height = Top; nf_calls = [];
      nf_findings =
        [ F.make ~severity:F.Warning ~func:name ~addr:sym.Image.sym_addr
            "stack-cfg-failed" ("CFG construction failed: " ^ msg) ];
      nf_stats = None }
  in
  match Analysis.Cfg.of_image img name with
  | exception Analysis.Cfg.Analysis_error msg -> fail msg
  | exception Invalid_argument msg -> fail msg
  | cfg ->
    let block a =
      match Hashtbl.find_opt cfg.Analysis.Cfg.blocks a with
      | Some b -> b
      | None ->
        invalid_arg
          (Printf.sprintf
             "Stackdisc.native_func: %s: no block at 0x%Lx" name a)
    in
    let flow a (st : Native_dom.t) =
      List.fold_left
        (fun st (bi : Analysis.Cfg.binstr) -> native_instr st bi.instr)
        st (block a).Analysis.Cfg.b_instrs
    in
    let transfer a st =
      let st = flow a st in
      List.map (fun s -> (s, st)) (Analysis.Cfg.successors (block a))
    in
    let entry = { Native_dom.h = Known 0; rbp = Top } in
    let r =
      Nfix.solve ~entries:[ (cfg.Analysis.Cfg.entry, entry) ] ~transfer ()
    in
    let findings = ref [] and ret_height = ref Bot and calls = ref [] in
    List.iter
      (fun a ->
         match Nfix.H.find_opt r.Nfix.state a with
         | None -> ()   (* unreachable block *)
         | Some st0 ->
           let b = block a in
           (* collect resolvable direct call targets *)
           List.iter
             (fun (bi : Analysis.Cfg.binstr) ->
                match bi.instr with
                | Call (J_rel d) ->
                  let tgt =
                    Int64.add bi.addr (Int64.of_int (bi.len + d))
                  in
                  calls := (bi.addr, tgt) :: !calls
                | _ -> ())
             b.Analysis.Cfg.b_instrs;
           let st = flow a st0 in
           match b.Analysis.Cfg.b_term with
           | Analysis.Cfg.T_ret | Analysis.Cfg.T_tail _ ->
             ret_height := v_join !ret_height st.Native_dom.h;
             let site =
               match b.Analysis.Cfg.b_term_instr with
               | Some ti -> ti.Analysis.Cfg.addr
               | None -> a
             in
             let what =
               match b.Analysis.Cfg.b_term with
               | Analysis.Cfg.T_ret -> "returns"
               | _ -> "tail-jumps"
             in
             (match st.Native_dom.h with
              | Known 0 | Bot -> ()
              | Known k ->
                findings :=
                  F.make ~func:name ~addr:site "stack-ret-unbalanced"
                    (Printf.sprintf
                       "%s with stack height %+d (must be 0: rsp must \
                        point at the return address)" what k)
                  :: !findings
              | Top ->
                findings :=
                  F.make ~severity:F.Warning ~func:name ~addr:site
                    "stack-ret-unknown"
                    (what ^ " with statically-unknown stack height")
                  :: !findings)
           | _ -> ())
      cfg.Analysis.Cfg.order;
    let findings =
      if cfg.Analysis.Cfg.failed then
        F.make ~severity:F.Warning ~func:name ~addr:sym.Image.sym_addr
          "stack-cfg-incomplete"
          "CFG has an unresolved indirect jump; height facts are partial"
        :: !findings
      else !findings
    in
    { nf_name = name; nf_addr = sym.Image.sym_addr;
      nf_size = sym.Image.sym_size;
      nf_ret_height = !ret_height; nf_calls = List.rev !calls;
      nf_findings = List.rev findings; nf_stats = Some r.Nfix.stats }

(* Whole-image native pass with the interprocedural call-site step. *)
let native_pass (img : Image.t) : F.t list * (string * Fixpoint.stats) list =
  let funcs =
    Image.functions img
    |> List.sort (fun a b -> Int64.compare a.Image.sym_addr b.Image.sym_addr)
    |> List.map (native_func img)
  in
  let by_range a =
    List.find_opt
      (fun nf ->
         Int64.compare nf.nf_addr a <= 0
         && Int64.compare a (Int64.add nf.nf_addr (Int64.of_int nf.nf_size)) < 0)
      funcs
  in
  let call_findings =
    List.concat_map
      (fun nf ->
         List.filter_map
           (fun (site, tgt) ->
              match by_range tgt with
              | Some callee ->
                (match callee.nf_ret_height with
                 | Known 0 | Bot | Top -> None
                 | Known k ->
                   Some
                     (F.make ~func:nf.nf_name ~addr:site
                        "stack-call-unbalanced"
                        (Printf.sprintf
                           "calls %s, which returns with stack height %s"
                           callee.nf_name (v_str (Known k)))))
              | None -> None)
           nf.nf_calls)
      funcs
  in
  ( List.concat_map (fun nf -> nf.nf_findings) funcs @ call_findings,
    List.filter_map
      (fun nf -> Option.map (fun s -> (nf.nf_name, s)) nf.nf_stats)
      funcs )

(* ========================================================================== *)
(* Chain pass: virtual-stack discipline over the rewritten chains             *)
(* ========================================================================== *)

type absval =
  | Unknown
  | Cst of int64
  | CellPtr of int
  | VspVal of int
  | Disps of int list

let av_join a b =
  match a, b with
  | Unknown, _ | _, Unknown -> Unknown
  | Disps xs, Disps ys -> Disps (List.sort_uniq compare (xs @ ys))
  | a, b -> if a = b then a else Unknown

module Chain_dom = struct
  type t = { delta : v; idx : v; regs : absval array }
  let equal (a : t) b = a.delta = b.delta && a.idx = b.idx && a.regs = b.regs
  let join a b =
    { delta = v_join a.delta b.delta;
      idx = v_join a.idx b.idx;
      regs = Array.init 16 (fun i -> av_join a.regs.(i) b.regs.(i)) }
  (* absval is finite-height too (Disps lists are bounded by the label
     count), so join converges without a genuine widening *)
  let widen _old joined = joined
end

module Cfix = Fixpoint.Make (Fixpoint.Int_node) (Chain_dom)

type chain_ctx = {
  cc_func : A.func;
  cc_ss_addr : int64;
  cc_ix : I.chain;
  cc_gadgets : I.gadgets;
  cc_branch_targets : int list;   (* all disp/table label offsets, fallback *)
  cc_guard : (int, unit) Hashtbl.t;
  (* slot offsets owned by guard-bearing points (jcc terminator groups and
     P2 trampolines): an [add rsp, r] there with r *not* holding a popped
     displacement is a P2 guard, which adds 0 on the legitimate path *)
  cc_tables : (int, int list) Hashtbl.t;
  (* jump tables, keyed by the offset of the anchor right after the
     dispatching [add rsp, r]: the table's own target labels, a tighter
     successor set than the whole-function fallback *)
}

let chain_ctx (audit : A.t) (gadgets : I.gadgets) (f : A.func) : chain_ctx =
  let ix = I.chain f in
  let guard = Hashtbl.create 16 in
  List.iter
    (fun (p : A.point) ->
       (* jcc terminator groups render as "je ..."/"jne ..." (never "jmp",
          which is an unconditional or table dispatch) *)
       let d = p.A.p_desc in
       let is_jcc =
         String.length d >= 2 && d.[0] = 'j'
         && not (String.length d >= 3 && String.sub d 0 3 = "jmp")
       in
       let is_tramp =
         String.length d >= 13 && String.sub d 0 13 = "p2 trampoline"
       in
       if is_jcc || is_tramp then
         Array.iter (fun (off, _) -> Hashtbl.replace guard off ()) p.A.p_slots)
    f.A.f_points;
  let tables = Hashtbl.create 4 in
  List.iter
    (fun (_, anchor, ts) ->
       match I.label ix anchor with
       | None -> ()
       | Some aoff ->
         Hashtbl.replace tables aoff (List.filter_map (I.label ix) ts))
    f.A.f_tables;
  { cc_func = f;
    cc_ss_addr = audit.A.a_ss_addr;
    cc_ix = ix;
    cc_gadgets = gadgets;
    cc_branch_targets = List.sort_uniq compare ix.I.targets;
    cc_guard = guard;
    cc_tables = tables }

(* Evaluate a memory operand's address as an absval. *)
let av_addr regs (m : mem) =
  match m.index, m.base with
  | Some _, _ | _, None -> (
      match m.base, m.index with
      | None, None -> Cst m.disp
      | _ -> Unknown)
  | None, Some b -> (
      match regs.(reg_index b) with
      | Cst v -> Cst (Int64.add v m.disp)
      | CellPtr k -> CellPtr (k + Int64.to_int m.disp)
      | VspVal k -> VspVal (k + Int64.to_int m.disp)
      | _ -> Unknown)

(* One gadget's transfer: simulate its instructions against the chain
   layout, producing the successor offsets and the findings of this
   transfer, in emission order. *)
let sim (ctx : chain_ctx) off (st0 : Chain_dom.t) =
  let f = ctx.cc_func in
  match I.slot8 ctx.cc_ix off with
  | None
  | Some (Ropc.Chain.S_imm _ | Ropc.Chain.S_disp _ | Ropc.Chain.S_opaque _)
    ->
    (* execution reaching a data slot / hole is ropcheck's Chain_bad_slot;
       do not duplicate it here, just cut the path *)
    ([], [])
  | Some (Ropc.Chain.S_label _ | Ropc.Chain.S_anchor _ | Ropc.Chain.S_skew _)
    ->
    invalid_arg
      (Printf.sprintf
         "Stackdisc.sim: marker slot in %s at chain+%d escaped the filter"
         f.A.f_name off)
  | Some (Ropc.Chain.S_gadget _ | Ropc.Chain.S_opaque_dispatch _ as slot) ->
    (* at runtime a dispatch slot behaves like its opaquely-recovered
       target: the jmp-reg trampoline is stack-neutral and the target's
       own ret continues the chain, so simulate the target body *)
    let ga =
      match slot with
      | Ropc.Chain.S_gadget a -> a
      | Ropc.Chain.S_opaque_dispatch { od_target; _ } -> od_target
      | _ -> assert false
    in
    match I.gadget ctx.cc_gadgets ga with
    | None -> ([], [])   (* ropcheck's Chain_unknown_gadget *)
    | Some g ->
      let findings = ref [] in
      let emit d = findings := d :: !findings in
      let delta = ref st0.Chain_dom.delta
      and idx = ref st0.Chain_dom.idx
      and regs = Array.copy st0.Chain_dom.regs in
      let cursor = ref (off + 8) and stopped = ref false in
      let succs = ref [] in
      let set r v = regs.(reg_index r) <- v in
      let get r = regs.(reg_index r) in
      let havoc i =
        let _, defs = Analysis.Reguse.def_use i in
        if R.mem_reg defs RSP then stopped := true
        else
          List.iter
            (fun r -> if R.mem_reg defs r then set r Unknown)
            all_regs
      in
      (* the unswitch: rsp := <frame cell contents>.  Legal only from the
         entry frame cell with the virtual stack balanced and (for the
         epilogue/tail path) the ss frame released exactly once. *)
      let unswitch via =
        (match via with
         | CellPtr 0 ->
           (match !delta with
            | Known 0 -> ()
            | Known k ->
              emit
                (F.make ~func:f.A.f_name ~chain_off:off ~addr:ga
                   "chain-unswitch-unbalanced"
                   (Printf.sprintf
                      "stack unswitch with virtual stack off by %+d bytes \
                       (native rsp will be skewed after return)" k))
            | Bot | Top ->
              emit
                (F.make ~severity:F.Warning ~func:f.A.f_name ~chain_off:off
                   ~addr:ga "chain-unswitch-unknown"
                   "stack unswitch with statically-unknown virtual stack \
                    offset"));
           (match !idx with
            | Known (-8) | Bot -> ()
            | Known k ->
              emit
                (F.make ~func:f.A.f_name ~chain_off:off ~addr:ga
                   "chain-frame-leak"
                   (Printf.sprintf
                      "stack unswitch with ss frame index %+d (expected -8: \
                       exactly one frame release)" (k)))
            | Top ->
              emit
                (F.make ~severity:F.Warning ~func:f.A.f_name ~chain_off:off
                   ~addr:ga "chain-frame-unknown"
                   "stack unswitch with statically-unknown ss frame index"))
         | CellPtr k ->
           emit
             (F.make ~func:f.A.f_name ~chain_off:off ~addr:ga
                "chain-unswitch-unbalanced"
                (Printf.sprintf
                   "stack unswitch reads frame cell %+d, not the entry cell"
                   k))
         | _ ->
           emit
             (F.make ~severity:F.Warning ~func:f.A.f_name ~chain_off:off
                ~addr:ga "chain-unswitch-unknown"
                "stack unswitch through a pointer the analysis cannot \
                 resolve"));
        stopped := true
      in
      let step_instr (i : instr) =
        match i with
        | Ret | Jmp _ | Jcc _ | Hlt -> ()   (* endings handled below *)
        | Xchg (W64, Reg RSP, Mem _) | Xchg (W64, Mem _, Reg RSP) ->
          ()   (* switch-call park; net cell effect applied at the ending *)
        | Pop (Reg RSP) -> stopped := true
        | Pop (Reg r) ->
          (match I.slot8 ctx.cc_ix !cursor with
           | Some (Ropc.Chain.S_imm v) -> set r (Cst v)
           | Some (Ropc.Chain.S_gadget a) -> set r (Cst a)
           | Some (Ropc.Chain.S_opaque { oq_value; oq_residue; oq_mult; _ })
             ->
             (* the slot's bytes are the residual, not the value *)
             set r
               (Cst
                  (Ropc.Chain.opaque_stored ~value:oq_value
                     ~residue:oq_residue ~mult:oq_mult))
           | Some (Ropc.Chain.S_opaque_dispatch { od_jop; _ }) ->
             set r (Cst od_jop)
           | Some (Ropc.Chain.S_disp { target; _ }) ->
             set r
               (match I.label ctx.cc_ix target with
                | Some t -> Disps [ t ]
                | None -> Unknown)
           | _ ->
             (* popping a hole: ropcheck's Chain_stack_mismatch *)
             stopped := true);
          if not !stopped then cursor := !cursor + 8
        | Pop (Mem m) ->
          (match av_addr regs m with
           | CellPtr 0 -> delta := Top
           | _ -> ());
          cursor := !cursor + 8
        | Pop (Imm _) -> stopped := true   (* malformed *)
        | Push _ -> stopped := true        (* gadgets never push the chain *)
        | Alu (Add, W64, Reg RSP, Imm k) -> cursor := !cursor + Int64.to_int k
        | Alu (Sub, W64, Reg RSP, Imm k) -> cursor := !cursor - Int64.to_int k
        | Alu (Add, W64, Reg RSP, Reg r) ->
          (* displacement branch: rsp += r with r holding a popped disp.
             The -1 sentinel (a conditionally-zeroed displacement, see the
             Imul2 case) falls through to the anchor right after this
             gadget, i.e. the current cursor. *)
          (match get r with
           | Disps ts ->
             succs :=
               List.map (fun d -> if d = -1 then !cursor else d) ts @ !succs
           | _ when Hashtbl.mem ctx.cc_tables !cursor ->
             (* jump-table dispatch: the anchor right after this gadget
                keys the table, whose recorded labels are the successors *)
             succs := Hashtbl.find ctx.cc_tables !cursor @ !succs
           | _ when Hashtbl.mem ctx.cc_guard off ->
             (* P2 guard: rsp += 8*d with d = 0 on the legitimate path; a
                nonzero d is the attacker-derailing trap, not a successor *)
             succs := !cursor :: !succs
           | _ -> succs := ctx.cc_branch_targets @ !succs);
          stopped := true
        | Alu (_, _, Reg RSP, _) -> stopped := true
        | Alu (op, W64, Reg rd, src)
          when op = Add || op = Sub ->
          let v =
            match src, get rd with
            | (Imm _ | Reg _), Disps ts ->
              (* bias correction on a popped displacement (p1_branch adds
                 the P1 residue the slot value was biased by): the runtime
                 sum is the true displacement, so the target set stands *)
              Disps ts
            | Imm k, Cst a ->
              Cst (if op = Add then Int64.add a k else Int64.sub a k)
            | Imm k, CellPtr a ->
              let k = Int64.to_int k in
              CellPtr (if op = Add then a + k else a - k)
            | Imm k, VspVal a ->
              let k = Int64.to_int k in
              VspVal (if op = Add then a + k else a - k)
            | Reg rs, av -> (
                match av, get rs with
                | Cst a, Cst b ->
                  Cst (if op = Add then Int64.add a b else Int64.sub a b)
                | _ -> Unknown)
            | Mem m, av -> (
                (* load_cell_ptr: add s1, [s1] with s1 = &ss  =>  CellPtr idx *)
                match op, av, av_addr regs m with
                | Add, Cst base, Cst a
                  when base = ctx.cc_ss_addr && a = ctx.cc_ss_addr -> (
                    match !idx with
                    | Known k -> CellPtr k
                    | _ -> Unknown)
                | _ -> Unknown)
            | _ -> Unknown
          in
          set rd v
        | Alu (Xor, W64, Reg rd, Reg rs) when rd = rs -> set rd (Cst 0L)
        | Alu (op, W64, Mem m, src) when op = Add || op = Sub -> (
            let sign k = if op = Add then k else -k in
            match av_addr regs m, src with
            | CellPtr 0, Imm k -> delta := v_add !delta (sign (Int64.to_int k))
            | CellPtr 0, Reg r -> (
                match get r with
                | Cst k -> delta := v_add !delta (sign (Int64.to_int k))
                | _ -> delta := Top)
            | CellPtr _, _ -> ()   (* parent frame cell: out of scope *)
            | Cst a, Imm k when a = ctx.cc_ss_addr ->
              idx := v_add !idx (sign (Int64.to_int k))
            | Cst a, _ when a = ctx.cc_ss_addr -> idx := Top
            | _ -> ())
        | Alu ((Cmp | Test), _, _, _) -> ()
        | Mov (W64, Reg RSP, Mem m) -> unswitch (av_addr regs m)
        | Mov (_, Reg RSP, _) -> stopped := true
        | Mov (W64, Reg rd, Imm v) -> set rd (Cst v)
        | Mov (W64, Reg rd, Reg rs) -> set rd (get rs)
        | Mov (W64, Reg rd, Mem m) -> (
            match av_addr regs m with
            | CellPtr 0 -> (
                match !delta with
                | Known k -> set rd (VspVal k)
                | _ -> set rd Unknown)
            | _ -> set rd Unknown)
        | Mov (_, Reg rd, _) -> set rd Unknown
        | Mov (W64, Mem m, Reg rs) -> (
            match av_addr regs m with
            | CellPtr 0 -> (
                match get rs with
                | VspVal k -> delta := Known k
                | _ -> delta := Top)
            | CellPtr _ -> ()
            | Cst a when a = ctx.cc_ss_addr -> idx := Top
            | _ -> ())
        | Mov (_, Mem m, _) -> (
            match av_addr regs m with
            | CellPtr 0 -> delta := Top
            | Cst a when a = ctx.cc_ss_addr -> idx := Top
            | _ -> ())
        | Lea (rd, m) -> set rd (av_addr regs m)
        | Cmov (_, rd, src) ->
          let v =
            match src with
            | Reg rs -> get rs
            | Imm v -> Cst v
            | Mem _ -> Unknown
          in
          set rd (av_join (get rd) v)
        | Leave | Call _ -> stopped := true   (* never appear inside gadgets *)
        | Imul2 (W64, rd, _) when (match get rd with Disps _ -> true | _ -> false) ->
          (* conditional-dispatch idiom (P3 loops, jcc lowering): a popped
             displacement is multiplied by a 0/1 setcc value, so the result
             is either the displacement or zero (= fall through).  -1 is
             the fall-through sentinel resolved at the add-rsp branch. *)
          (match get rd with
           | Disps ts -> set rd (Disps (-1 :: ts))
           | _ -> ())
        | i -> havoc i
      in
      List.iter (fun i -> if not !stopped then step_instr i) g.I.g_instrs;
      if not !stopped then begin
        match g.I.g_summary.Verify.Summary.ending with
        | Verify.Summary.End_ret -> succs := [ !cursor ]
        | Verify.Summary.End_switch_call ->
          (* native_call pre-decremented the cell by 8 to plant the
             function-return gadget; the callee's ret + funcret restore
             net it back, so the post-call state sees delta + 8 *)
          delta := v_add !delta 8;
          succs := [ !cursor ]
        | Verify.Summary.End_jop
        | Verify.Summary.End_halt
        | Verify.Summary.End_fall -> ()
      end;
      let st' =
        { Chain_dom.delta = !delta; idx = !idx; regs }
      in
      ( List.map (fun o -> (o, st')) (List.sort_uniq compare !succs),
        List.rev !findings )

let chain_entry : Chain_dom.t =
  { delta = Known 0; idx = Known 0; regs = Array.make 16 Unknown }

(* Run the chain analysis for one rewritten function.  The worklist
   re-queues a node on every change to its state, so a node's last transfer
   runs on its final state: the findings of that transfer are the node's
   findings, and no second pass over the solved states is needed. *)
let chain_func (audit : A.t) (gadgets : I.gadgets) (f : A.func)
  : F.t list * Fixpoint.stats =
  let ctx = chain_ctx audit gadgets f in
  let last = Hashtbl.create 64 in
  let r =
    Cfix.solve
      ~entries:[ (0, chain_entry) ]
      ~transfer:(fun off st ->
          let succs, findings = sim ctx off st in
          Hashtbl.replace last off findings;
          succs)
      ()
  in
  let findings =
    Hashtbl.fold (fun off fs acc -> (off, fs) :: acc) last []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.concat_map snd
  in
  (findings, r.Cfix.stats)

let chain_pass (audit : A.t) : F.t list * (string * Fixpoint.stats) list =
  let gadgets = I.gadgets audit in
  let per =
    List.map (fun f -> (f.A.f_name, chain_func audit gadgets f))
      audit.A.a_funcs
  in
  ( List.concat_map (fun (_, (fs, _)) -> fs) per,
    List.map (fun (n, (_, st)) -> (n, st)) per )

(* Full pass: native discipline on the original image, virtual-stack
   discipline on the rewritten chains. *)
let run ~(orig : Image.t) (audit : A.t) : F.t list =
  let nf, _ = native_pass orig in
  let cf, _ = chain_pass audit in
  nf @ cf
