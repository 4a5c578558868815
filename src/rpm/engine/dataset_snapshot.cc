#include "rpm/engine/dataset_snapshot.h"

#include <utility>

#include "rpm/timeseries/io/spmf_io.h"
#include "rpm/timeseries/io/timestamped_csv_io.h"
#include "rpm/timeseries/tdb_builder.h"

namespace rpm::engine {

DatasetSnapshot::DatasetSnapshot(TransactionDatabase db)
    : db_(std::move(db)) {}

std::shared_ptr<const DatasetSnapshot> DatasetSnapshot::Create(
    TransactionDatabase db) {
  return std::shared_ptr<const DatasetSnapshot>(
      new DatasetSnapshot(std::move(db)));
}

Result<std::shared_ptr<const DatasetSnapshot>> DatasetSnapshot::Load(
    const std::string& path, const std::string& format) {
  if (format == "tspmf") {
    RPM_ASSIGN_OR_RETURN(TransactionDatabase db,
                         ReadTimestampedSpmfFile(path));
    return Create(std::move(db));
  }
  if (format == "spmf") {
    RPM_ASSIGN_OR_RETURN(TransactionDatabase db, ReadSpmfFile(path));
    return Create(std::move(db));
  }
  if (format == "csv") {
    RPM_ASSIGN_OR_RETURN(EventCsvData data, ReadEventCsvFile(path));
    return Create(
        BuildTdbFromSequence(data.sequence, std::move(data.dictionary)));
  }
  return Status::InvalidArgument("unknown --format '" + format +
                                 "' (expected tspmf, spmf or csv)");
}

}  // namespace rpm::engine
