#ifndef ORX_DATASETS_DATASET_H_
#define ORX_DATASETS_DATASET_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/authority_graph.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "text/corpus.h"

namespace orx::datasets {

/// A ready-to-query dataset: schema + data graph + the derived indexes
/// (authority transfer CSR and text corpus). Owns everything; move-only.
/// Internals live behind unique_ptr so moving a Dataset never invalidates
/// the cross-references (DataGraph holds a pointer to its SchemaGraph).
class Dataset {
 public:
  /// Takes ownership of a schema and creates an empty data graph over it.
  Dataset(std::unique_ptr<graph::SchemaGraph> schema, std::string name);

  /// Wraps parts that are already built (the ORXD2 attach path,
  /// io/snapshot_io.h). `data` must reference `*schema`, and `authority`
  /// and `corpus` must index `data`. The result is finalized.
  Dataset(std::string name, std::unique_ptr<graph::SchemaGraph> schema,
          std::unique_ptr<graph::DataGraph> data,
          std::unique_ptr<graph::AuthorityGraph> authority,
          std::unique_ptr<text::Corpus> corpus);

  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  /// Mutable data graph for generators/parsers; call Finalize() when done.
  graph::DataGraph& mutable_data() { return *data_; }

  /// Builds the authority graph and the corpus from the current data
  /// graph. Must be called once after population, before queries.
  /// `corpus_options` controls text indexing (e.g. metadata keywords).
  void Finalize(const text::CorpusOptions& corpus_options =
                    text::CorpusOptions());

  /// Replaces the data graph (used by subset extraction) and clears the
  /// indexes; call Finalize() again afterwards.
  void ResetData(std::unique_ptr<graph::DataGraph> data);

  bool finalized() const { return authority_ != nullptr; }

  const std::string& name() const { return name_; }
  const graph::SchemaGraph& schema() const { return *schema_; }
  const graph::DataGraph& data() const { return *data_; }

  /// Pre: finalized().
  const graph::AuthorityGraph& authority() const { return *authority_; }
  const text::Corpus& corpus() const { return *corpus_; }

  /// Total in-memory footprint (graph + indexes), the Table 1 "Size"
  /// analogue.
  size_t MemoryFootprintBytes() const;

 private:
  std::string name_;
  std::unique_ptr<graph::SchemaGraph> schema_;
  std::unique_ptr<graph::DataGraph> data_;
  std::unique_ptr<graph::AuthorityGraph> authority_;
  std::unique_ptr<text::Corpus> corpus_;
};

/// Builds the induced data graph over the nodes selected by `seed`,
/// expanded by `expand_hops` breadth-first hops over data edges in either
/// direction, keeping every data edge whose endpoints are both selected.
/// This is how the paper derived its focused subsets: DBLPtop is the
/// databases-related subset of DBLPcomplete, DS7cancer is the subset of
/// DS7 made of PubMed publications about "cancer" plus all biological
/// entities related to them (Section 6).
///
/// The returned graph references `target_schema` if given (which must be
/// structurally identical to data.schema() — same type/edge-type ids, as
/// produced by re-running the same Make*Schema builder), else the same
/// schema instance as `data`.
std::unique_ptr<graph::DataGraph> InducedSubgraph(
    const graph::DataGraph& data, const std::vector<bool>& seed,
    int expand_hops, const graph::SchemaGraph* target_schema = nullptr);

/// Convenience: selects the nodes of `select_type` whose text contains
/// `keyword` (exact token match via the corpus), expands by `expand_hops`,
/// and returns the induced subgraph. Returns nullptr if no node matches.
std::unique_ptr<graph::DataGraph> ExtractKeywordSubset(
    const graph::DataGraph& data, const text::Corpus& corpus,
    const std::string& keyword, graph::TypeId select_type, int expand_hops);

}  // namespace orx::datasets

#endif  // ORX_DATASETS_DATASET_H_
