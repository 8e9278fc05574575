type entry = { doc : string; score : float }

let rank entries =
  List.sort
    (fun a b ->
      let c = compare b.score a.score in
      if c <> 0 then c else compare a.doc b.doc)
    entries

let top_k k entries = List.filteri (fun i _ -> i < k) (rank entries)

let position ranked doc =
  let rec go i = function
    | [] -> None
    | e :: rest -> if String.equal e.doc doc then Some i else go (i + 1) rest
  in
  go 0 ranked

(* Bucket by flooring, not [int_of_float] (which truncates toward zero
   and would round negative scores up into the wrong bucket). *)
let bucket ~width x = Float.of_int (int_of_float (Float.floor (x /. width))) *. width

let quantize ~width entries =
  if width <= 0.0 then invalid_arg "Ranking.quantize: width must be positive";
  List.map (fun e -> { e with score = bucket ~width e.score }) entries

(* {2 Block-max WAND}

   The ranker sees postings only through this cursor record, so the
   privacy argument is structural: every field is supplied by the index
   from partitions at levels <= the caller's, and the ranker adds no
   other input — each pruning decision is a pure function of what the
   caller may see. [wc_lb], [wc_block_max] and [wc_block_last] must
   never decode a block; [wc_cur] and [wc_score] may. *)
type wand_cursor = {
  wc_ub : float;  (* static upper bound on any doc's contribution *)
  wc_lb : unit -> int;  (* lower bound on the current doc; no decode *)
  wc_block_max : unit -> float;  (* bound over the current block *)
  wc_block_last : unit -> int;  (* last doc the block bound covers *)
  wc_cur : unit -> int;  (* exact current doc; max_int when exhausted *)
  wc_score : int -> float;  (* seek to the doc, contribution (0. if absent) *)
  wc_seek : int -> unit;
  wc_next : int -> unit;  (* advance past the doc if positioned on it *)
}

let top_k_wand ~k ~doc cursors =
  if k <= 0 || cursors = [] then []
  else begin
    let all = Array.of_list cursors in
    let n = Array.length all in
    (* Worst-first top-k buffer with the deterministic (score desc, doc
       asc) order of [rank]; doc ids compare like doc names (Symtab). *)
    let heap = ref [] and hsize = ref 0 in
    let better s d (s', d') = s > s' || (s = s' && d < d') in
    let rec ins s d = function
      | [] -> [ (s, d) ]
      | (s', d') :: _ as l when better s' d' (s, d) -> (s, d) :: l
      | x :: tl -> x :: ins s d tl
    in
    let insert s d =
      if !hsize < k then begin
        incr hsize;
        heap := ins s d !heap
      end
      else
        match !heap with
        | (ws, wd) :: rest when better s d (ws, wd) -> heap := ins s d rest
        | _ -> ()
    in
    (* Tie-conservative qualification: with a full buffer a candidate
       must beat the worst kept (score, doc) pair, so pruning on "cannot
       beat" never drops a doc that deterministic ranking would keep. *)
    let can_beat bound d =
      !hsize < k
      || match !heap with [] -> true | (ws, wd) :: _ -> better bound d (ws, wd)
    in
    let lbs = Array.make n 0 in
    let by_lb = Array.init n Fun.id in
    let continue = ref true in
    while !continue do
      Array.iteri (fun i c -> lbs.(i) <- c.wc_lb ()) all;
      Array.sort (fun a b -> compare (lbs.(a), a) (lbs.(b), b)) by_lb;
      let lb0 = lbs.(by_lb.(0)) in
      if lb0 = max_int then continue := false
      else begin
        (* Pivot: the shortest sorted prefix whose static bounds could
           beat the buffer at the smallest possible doc. *)
        let acc = ref 0.0 and pivot = ref (-1) in
        (try
           for i = 0 to n - 1 do
             if lbs.(by_lb.(i)) = max_int then raise Exit;
             acc := !acc +. all.(by_lb.(i)).wc_ub;
             if can_beat !acc lb0 then begin
               pivot := i;
               raise Exit
             end
           done
         with Exit -> ());
        if !pivot < 0 then continue := false
        else begin
          (* Extend across equal lower bounds so the window below the
             next cursor is never empty (progress guarantee). *)
          let p = ref !pivot in
          while
            !p + 1 < n && lbs.(by_lb.(!p + 1)) = lbs.(by_lb.(!p))
          do
            incr p
          done;
          let p = !p in
          let d_blocks = ref max_int and refined = ref 0.0 in
          for i = 0 to p do
            d_blocks := min !d_blocks (all.(by_lb.(i)).wc_block_last ());
            refined := !refined +. all.(by_lb.(i)).wc_block_max ()
          done;
          let d_next = if p + 1 < n then lbs.(by_lb.(p + 1)) else max_int in
          let d' =
            min d_next
              (if !d_blocks = max_int then max_int else !d_blocks + 1)
          in
          if d' > lb0 && not (can_beat !refined lb0) then
            (* No doc below [d'] can qualify: docs there involve only the
               prefix cursors, whose block bounds cannot beat the buffer.
               Jump, skipping whole blocks undecoded. *)
            for i = 0 to p do
              all.(by_lb.(i)).wc_seek d'
            done
          else begin
            (* Evaluate the smallest actual doc among the prefix; the
               contribution sum runs over every cursor in query order, so
               the float accumulation matches the exhaustive ranker. *)
            let d0 = ref max_int in
            for i = 0 to p do
              d0 := min !d0 (all.(by_lb.(i)).wc_cur ())
            done;
            if !d0 >= d_next then
              (* Lower bounds undershot: the prefix's real documents lie
                 at or past the next cursor's bound, whose documents
                 below [!d0] would be skipped by scoring [!d0] now.
                 Decoding raised the prefix's bounds; re-sort. *)
              ()
            else begin
              let s = ref 0.0 in
              for i = 0 to n - 1 do
                s := !s +. all.(i).wc_score !d0
              done;
              insert !s !d0;
              for i = 0 to n - 1 do
                all.(i).wc_next !d0
              done
            end
          end
        end
      end
    done;
    List.rev_map (fun (s, d) -> { doc = doc d; score = s }) !heap
  end

type interval = { lo : int; hi : int }

let width i = i.hi - i.lo + 1

(* A candidate tf is consistent with the published order when ranking the
   (transformed) scores reproduces it. [transform] is identity for exact
   scores and bucket-flooring for quantised ones. *)
let feasible_tfs ~transform ~target_base ~others ~idf ~max_tf ~ranking ~target =
  if max_tf < 0 then invalid_arg "Ranking.infer: max_tf < 0";
  if idf <= 0.0 then invalid_arg "Ranking.infer: idf <= 0";
  if not (List.mem target ranking) then
    invalid_arg "Ranking.infer: target not in ranking";
  let consistent t =
    let s = transform (target_base +. (float_of_int t *. idf)) in
    let score_of d =
      if String.equal d target then s
      else
        match List.assoc_opt d others with
        | Some x -> transform x
        | None -> invalid_arg (Printf.sprintf "Ranking.infer: unknown doc %S" d)
    in
    (* Published order must be a valid ranking of these scores. *)
    let rec ordered = function
      | a :: (b :: _ as rest) ->
          let sa = score_of a and sb = score_of b in
          (sa > sb || (sa = sb && String.compare a b < 0)) && ordered rest
      | _ -> true
    in
    ordered ranking
  in
  List.filter consistent (List.init (max_tf + 1) Fun.id)

let to_interval ~max_tf = function
  | [] -> { lo = 0; hi = max_tf }
  | ts -> { lo = List.fold_left min max_int ts; hi = List.fold_left max 0 ts }

let infer_masked_tf ~target_base ~others ~idf ~max_tf ~ranking ~target =
  feasible_tfs ~transform:Fun.id ~target_base ~others ~idf ~max_tf ~ranking
    ~target
  |> to_interval ~max_tf

let infer_masked_tf_quantized ~bucket_width ~target_base ~others ~idf ~max_tf
    ~ranking ~target =
  if bucket_width <= 0.0 then invalid_arg "Ranking.infer: bucket_width <= 0";
  feasible_tfs ~transform:(bucket ~width:bucket_width) ~target_base ~others
    ~idf ~max_tf ~ranking ~target
  |> to_interval ~max_tf
