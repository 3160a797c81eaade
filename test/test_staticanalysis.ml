(* lib/staticanalysis: the fixpoint engine's convergence contract and its
   last-transfer invariant, the chain index's label table, the
   stack-discipline pass's ability to catch a seeded pivot bug, translation
   validation on directly-lowered regions, and stealth/pool-bloat smoke. *)

open Minic.Ast
module FP = Staticanalysis.Fixpoint
module SD = Staticanalysis.Stackdisc
module TV = Staticanalysis.Transval
module F = Verify.Finding

(* --- fixpoint engine ------------------------------------------------------ *)

(* Unbounded counter over a 2-node cycle: join climbs forever, so
   convergence is entirely the widening operator's doing. *)
module Count = struct
  type t = Bounded of int | Inf
  let equal = ( = )
  let join a b =
    match (a, b) with
    | Inf, _ | _, Inf -> Inf
    | Bounded x, Bounded y -> Bounded (max x y)
  let widen old joined = if equal old joined then old else Inf
end

module CFP = FP.Make (FP.Int_node) (Count)

let cycle_transfer n st =
  let st' =
    match st with Count.Inf -> Count.Inf | Count.Bounded k -> Count.Bounded (k + 1)
  in
  [ ((n + 1) mod 2, st') ]

let test_widening_terminates () =
  let res =
    CFP.solve ~entries:[ (0, Count.Bounded 0) ] ~transfer:cycle_transfer ()
  in
  Alcotest.(check int) "both nodes reached" 2 res.CFP.stats.FP.nodes;
  Alcotest.(check bool) "widening fired" true (res.CFP.stats.FP.widenings > 0);
  Alcotest.(check bool) "cycle stabilized at top" true
    (CFP.H.find_opt res.CFP.state 0 = Some Count.Inf
     && CFP.H.find_opt res.CFP.state 1 = Some Count.Inf)

(* A broken widening (identity) must surface as the typed Divergence error
   via the max_steps backstop, never as a hang. *)
module Noisy = struct
  type t = int
  let equal = Int.equal
  let join = max
  let widen _old joined = joined     (* deliberately does not stabilize *)
end

module NFP = FP.Make (FP.Int_node) (Noisy)

let test_divergence_backstop () =
  match
    NFP.solve ~widen_after:4 ~max_steps:100 ~entries:[ (0, 0) ]
      ~transfer:(fun n st -> [ ((n + 1) mod 2, st + 1) ])
      ()
  with
  | _ -> Alcotest.fail "expected Divergence"
  | exception FP.Divergence msg ->
    Alcotest.(check bool) "message names the backstop" true
      (String.length msg > 0)

(* Stackdisc keeps each node's findings from its last transfer instead of
   re-running the transfer over the solved states.  That rests on this
   invariant of the worklist: every reached node is transferred at least
   once, and the last transfer of a node runs on the node's final state.
   Checked over random small graphs with a flat domain (joins only) and
   with the counting domain above, whose cycles need widening.  The
   qcheck seed is pinned and printed; QCHECK_SEED=<n> overrides it. *)
let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 12

module Flat = struct
  type t = SD.v
  let equal = ( = )
  let join = SD.v_join
  let widen _old joined = joined
end

module FFP = FP.Make (FP.Int_node) (Flat)

(* a graph: per node, its (successor, edge weight) list *)
let gen_graph =
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    array_size (return n)
      (list_size (int_range 0 3) (pair (int_range 0 (n - 1)) (int_range 0 2))))

let arb_graph =
  QCheck.make gen_graph
    ~print:(fun g ->
        String.concat "; "
          (Array.to_list
             (Array.mapi
                (fun i es ->
                   Printf.sprintf "%d->[%s]" i
                     (String.concat ","
                        (List.map (fun (s, w) -> Printf.sprintf "%d/+%d" s w)
                           es)))
                g)))

(* graphs on which some node was transferred more than once, and on which
   widening fired: a property run that saw none of either checked nothing *)
let retransferred = ref 0 and widened = ref 0

(* Solve [g] from node 0, recording every transfer's input state, and
   check the recorded state of each node against its solved one.  [solve]
   returns the solved (node, state) pairs and the solver's stats. *)
let last_transfer_holds ~solve ~equal ~add entry g =
  let last = Hashtbl.create 8 in
  let solved, (stats : FP.stats) =
    solve ~entries:[ (0, entry) ] ~transfer:(fun n st ->
        Hashtbl.replace last n st;
        List.map (fun (m, w) -> (m, add st w)) g.(n))
  in
  if stats.FP.iterations > stats.FP.nodes then incr retransferred;
  if stats.FP.widenings > 0 then incr widened;
  Hashtbl.length last = List.length solved
  && List.for_all
       (fun (n, final) ->
          match Hashtbl.find_opt last n with
          | Some st -> equal st final
          | None -> false)
       solved

let prop_last_transfer_flat =
  QCheck.Test.make ~count:500
    ~name:"last transfer carries the final state (flat domain)" arb_graph
    (fun g ->
       last_transfer_holds ~equal:Flat.equal ~add:SD.v_add (SD.Known 0) g
         ~solve:(fun ~entries ~transfer ->
             let r = FFP.solve ~entries ~transfer () in
             ( FFP.H.fold (fun n st acc -> (n, st) :: acc) r.FFP.state [],
               r.FFP.stats )))

let prop_last_transfer_widening =
  QCheck.Test.make ~count:500
    ~name:"last transfer carries the final state (widening domain)" arb_graph
    (fun g ->
       last_transfer_holds ~equal:Count.equal
         ~add:(fun st w ->
             match st with
             | Count.Inf -> Count.Inf
             | Count.Bounded k -> Count.Bounded (k + w))
         (Count.Bounded 0) g
         ~solve:(fun ~entries ~transfer ->
             let r = CFP.solve ~entries ~transfer () in
             ( CFP.H.fold (fun n st acc -> (n, st) :: acc) r.CFP.state [],
               r.CFP.stats )))

(* run a property, then require that it met [counter] on some graph *)
let non_vacuous ~rand what counter prop =
  let name, speed, run = QCheck_alcotest.to_alcotest ~rand prop in
  ( name, speed,
    fun () ->
      counter := 0;
      run ();
      Alcotest.(check bool) (what ^ " on some graph") true (!counter > 0) )

(* --- chain index ------------------------------------------------------------ *)

(* A duplicated label name resolves to its first binding, as
   List.assoc_opt on f_labels does, for lookups and for the
   displacement-target list alike. *)
let test_index_first_label () =
  let f =
    { Ropc.Audit.f_name = "dup"; f_sym_addr = 0x400000L; f_sym_size = 32;
      f_stub_len = 16; f_chain_base = 0xA00000L; f_chain_len = 24;
      f_layout =
        [| (0, Ropc.Chain.S_label "L");
           (0, Ropc.Chain.S_gadget 0x401000L);
           (8, Ropc.Chain.S_disp { target = "L"; anchor = "A"; bias = 0L });
           (16, Ropc.Chain.S_anchor "A");
           (16, Ropc.Chain.S_label "L");
           (16, Ropc.Chain.S_gadget 0x401008L) |];
      f_labels = [ ("L", 0); ("A", 16); ("L", 16) ];
      f_points = []; f_tables = []; f_p1 = None }
  in
  let ix = Verify.Index.chain f in
  Alcotest.(check (option int)) "first binding of L" (Some 0)
    (Verify.Index.label ix "L");
  Alcotest.(check (option int)) "same as List.assoc_opt"
    (List.assoc_opt "L" f.Ropc.Audit.f_labels) (Verify.Index.label ix "L");
  Alcotest.(check (option int)) "A" (Some 16) (Verify.Index.label ix "A");
  Alcotest.(check (list int)) "displacement target uses the first binding"
    [ 0 ] ix.Verify.Index.targets;
  Alcotest.(check bool) "marker at 16 shadows no slot" true
    (Verify.Index.slot8 ix 16 = Some (Ropc.Chain.S_gadget 0x401008L))

(* --- stack discipline ----------------------------------------------------- *)

let fact_prog =
  program
    [ func ~params:[ "n" ] ~locals:[ "r"; "i" ] "fact"
        [ set "r" (c 1);
          For (set "i" (c 1), Bin (Les, v "i", v "n"),
               set "i" (Bin (Add, v "i", c 1)),
               [ set "r" (Bin (Mul, v "r", v "i")) ]);
          Return (v "r") ] ]

let rewrite ?(config = Ropc.Config.rop_k ~seed:3 1.0) () =
  let img = Minic.Codegen.compile fact_prog in
  let r = Ropc.Rewriter.rewrite img ~functions:[ "fact" ] ~config in
  (img, r)

let test_clean_chain_passes () =
  let _, r = rewrite () in
  let findings, stats = SD.chain_pass r.Ropc.Rewriter.audit in
  Alcotest.(check int) "no errors on a clean rewrite" 0
    (List.length (F.errors findings));
  (* the solver actually visited the chain *)
  List.iter
    (fun (_, s) -> Alcotest.(check bool) "nodes visited" true (s.FP.nodes > 0))
    stats

(* The seeded bug: debug_unbalanced_epilogue skews the epilogue's virtual
   stack by one slot.  ropcheck's linear walk does not model the unswitch
   arithmetic; the interprocedural height analysis must flag it. *)
let test_injected_unbalance_caught () =
  let config =
    { (Ropc.Config.rop_k ~seed:3 1.0) with
      Ropc.Config.debug_unbalanced_epilogue = true }
  in
  let _, r = rewrite ~config () in
  let findings, _ = SD.chain_pass r.Ropc.Rewriter.audit in
  let tags = List.map (fun f -> f.F.tag) (F.errors findings) in
  Alcotest.(check bool) "chain-unswitch-unbalanced reported" true
    (List.mem "chain-unswitch-unbalanced" tags)

(* --- translation validation ----------------------------------------------- *)

let test_transval_proves_fact () =
  (* k = 0.25 leaves most points directly lowered; k = 1.0 would shield
     every one behind a P3 loop and (correctly) skip them all *)
  let orig, r = rewrite ~config:(Ropc.Config.rop_k ~seed:3 0.25) () in
  let tv =
    TV.run ~orig ~rewritten:r.Ropc.Rewriter.image r.Ropc.Rewriter.audit
  in
  Alcotest.(check bool) "proved at least one region" true (tv.TV.tv_proven > 0);
  Alcotest.(check int) "no unproven regions" 0 tv.TV.tv_unproven;
  Alcotest.(check int) "no findings" 0 (List.length tv.TV.tv_findings);
  (* every region is accounted for: proven or skipped-with-reason *)
  List.iter
    (fun (_, _, reason) ->
       Alcotest.(check bool) "skip has a reason" true (String.length reason > 0))
    tv.TV.tv_skipped

(* Instruction hiding at k = 1.0 shields every point behind a P3 loop, but
   the hidden-payload regions are real lowered code and must still be
   validated — the +ih audit converts would-be skips into proven regions. *)
let test_transval_proves_hidden () =
  let orig, r = rewrite ~config:(Ropc.Config.rop_k ~seed:3 ~hiding:true 1.0) () in
  let tv =
    TV.run ~orig ~rewritten:r.Ropc.Rewriter.image r.Ropc.Rewriter.audit
  in
  Alcotest.(check bool) "proved hidden-payload regions" true (tv.TV.tv_proven > 0);
  Alcotest.(check int) "no unproven regions" 0 tv.TV.tv_unproven;
  Alcotest.(check int) "no findings" 0 (List.length tv.TV.tv_findings)

(* The seeded hidden-payload bug: a stray register write smuggled into one
   payload.  The differential runs cannot see it unless the register is
   observed downstream, but translation validation compares full final
   states and must refuse to prove the region. *)
let test_injected_hidden_caught () =
  let config =
    { (Ropc.Config.rop_k ~seed:3 ~hiding:true 1.0) with
      Ropc.Config.debug_hidden_payload = true }
  in
  let orig, r = rewrite ~config () in
  let tv =
    TV.run ~orig ~rewritten:r.Ropc.Rewriter.image r.Ropc.Rewriter.audit
  in
  let tags = List.map (fun f -> f.F.tag) tv.TV.tv_findings in
  Alcotest.(check bool) "transval-mismatch reported" true
    (List.mem "transval-mismatch" tags)

(* --- stealth + pool bloat ------------------------------------------------- *)

let test_stealth_smoke () =
  let _, r = rewrite () in
  let st =
    Staticanalysis.Stealth.run ~rewritten:r.Ropc.Rewriter.image
      r.Ropc.Rewriter.audit
  in
  List.iter
    (fun fs ->
       let s = fs.Staticanalysis.Stealth.fs_score in
       Alcotest.(check bool) "score in [0,100]" true (s >= 0. && s <= 100.))
    st.Staticanalysis.Stealth.sl_funcs;
  Alcotest.(check bool) "rewritten fact scored" true
    (List.exists
       (fun fs -> fs.Staticanalysis.Stealth.fs_name = "fact")
       st.Staticanalysis.Stealth.sl_funcs)

(* Stealth recalibration for the opaque layer: residuals are plain data
   words and the dispatch trampoline is one more pool pointer, so the
   opaque chain must never look MORE like an injected ROP payload than the
   literal chain it replaces — and both must stay below the warning
   threshold on today's corpus shapes. *)
let test_stealth_opaque_vs_literal () =
  let score config =
    let _, r = rewrite ~config () in
    let st =
      Staticanalysis.Stealth.run ~rewritten:r.Ropc.Rewriter.image
        r.Ropc.Rewriter.audit
    in
    match
      List.find_opt
        (fun fs -> fs.Staticanalysis.Stealth.fs_name = "fact")
        st.Staticanalysis.Stealth.sl_funcs
    with
    | Some fs ->
      (fs.Staticanalysis.Stealth.fs_score,
       fs.Staticanalysis.Stealth.fs_slot_frac)
    | None -> Alcotest.fail "fact not scored"
  in
  let lit_score, lit_slot = score (Ropc.Config.rop_k ~seed:3 1.0) in
  let opq_score, opq_slot =
    score (Ropc.Config.rop_k ~seed:3 ~opaque:true 1.0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "opaque slot_frac %.3f <= literal %.3f" opq_slot lit_slot)
    true (opq_slot <= lit_slot +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "opaque score %.1f <= literal %.1f" opq_score lit_score)
    true (opq_score <= lit_score +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "opaque score %.1f below warning threshold" opq_score)
    true (opq_score < Staticanalysis.Stealth.warning_threshold)

let test_poolbloat_smoke () =
  let _, r = rewrite () in
  let pb = Staticanalysis.Poolbloat.run r.Ropc.Rewriter.audit in
  let open Staticanalysis.Poolbloat in
  Alcotest.(check bool) "pool has gadgets" true (pb.pb_total > 0);
  Alcotest.(check bool) "referenced <= total" true
    (pb.pb_referenced <= pb.pb_total);
  Alcotest.(check bool) "live bytes within pool" true
    (pb.pb_live_bytes <= pb.pb_pool_bytes)

(* --- driver --------------------------------------------------------------- *)

let test_driver_end_to_end () =
  let orig, r = rewrite () in
  let report =
    Staticanalysis.Driver.lint ~orig ~rewritten:r.Ropc.Rewriter.image
      r.Ropc.Rewriter.audit
  in
  Alcotest.(check int) "no errors" 0
    (List.length (F.errors report.Staticanalysis.Driver.r_findings));
  let passes =
    List.map
      (fun t -> t.Staticanalysis.Driver.t_pass)
      report.Staticanalysis.Driver.r_timings
  in
  Alcotest.(check (list string)) "all four passes timed"
    [ "stackdisc"; "transval"; "stealth"; "poolbloat" ] passes

let () =
  Printf.printf "fixpoint properties: QCHECK_SEED=%d\n%!" qcheck_seed;
  let rand = Random.State.make [| qcheck_seed |] in
  Alcotest.run "staticanalysis"
    [ ("fixpoint",
       [ Alcotest.test_case "widening terminates a counter cycle" `Quick
           test_widening_terminates;
         Alcotest.test_case "broken widening raises Divergence" `Quick
           test_divergence_backstop;
         non_vacuous ~rand "a node transferred twice" retransferred
           prop_last_transfer_flat;
         non_vacuous ~rand "widening fired" widened
           prop_last_transfer_widening ]);
      ("index",
       [ Alcotest.test_case "duplicated label keeps first binding" `Quick
           test_index_first_label ]);
      ("stackdisc",
       [ Alcotest.test_case "clean chain has no errors" `Quick
           test_clean_chain_passes;
         Alcotest.test_case "seeded unbalanced epilogue caught" `Quick
           test_injected_unbalance_caught ]);
      ("transval",
       [ Alcotest.test_case "fact regions proven" `Quick
           test_transval_proves_fact;
         Alcotest.test_case "hidden-payload regions proven" `Quick
           test_transval_proves_hidden;
         Alcotest.test_case "seeded hidden payload caught" `Quick
           test_injected_hidden_caught ]);
      ("stealth",
       [ Alcotest.test_case "scores bounded" `Quick test_stealth_smoke;
         Alcotest.test_case "opaque chains score no worse than literal" `Quick
           test_stealth_opaque_vs_literal ]);
      ("poolbloat",
       [ Alcotest.test_case "accounting invariants" `Quick
           test_poolbloat_smoke ]);
      ("driver",
       [ Alcotest.test_case "end to end on fact" `Quick
           test_driver_end_to_end ]) ]
