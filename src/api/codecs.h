/**
 * @file
 * Versioned codecs for the AnalysisService request/response schema —
 * what makes a job a wire-portable artifact.
 *
 * Two formats, both complete and lossless:
 *
 *  - BINARY (store/serializer primitives): the compact machine
 *    format the socket frames ship between processes (client
 *    requests, fleet jobs and cells). A request carrying a foreign
 *    kSchemaVersion degrades to a read failure, never to a misparsed
 *    job.
 *  - JSON (api/json.h): the human- and tool-facing format. Finite
 *    doubles are emitted with %.17g (exact round trip); non-finite
 *    doubles as the strings "nan"/"inf"/"-inf"; 64-bit integers that
 *    may exceed 2^53 as decimal strings; raw memory images as hex.
 *    Field order is deterministic, so two equal responses dump to
 *    byte-identical text (the check.sh smokes diff on this).
 *
 * Every reader returns false (with a message where the signature
 * allows) on malformed input; a bad job fails, it never crashes the
 * service.
 */

#ifndef GPUPERF_API_CODECS_H
#define GPUPERF_API_CODECS_H

#include <string>

#include "api/request.h"
#include "store/serializer.h"

namespace gpuperf {
namespace api {

// --- Binary ----------------------------------------------------------

void writeRequest(store::ByteWriter &w, const AnalysisRequest &req);
bool readRequest(store::ByteReader &r, AnalysisRequest *req);

void writeResponse(store::ByteWriter &w, const AnalysisResponse &resp);
bool readResponse(store::ByteReader &r, AnalysisResponse *resp);

// --- JSON ------------------------------------------------------------

std::string requestToJson(const AnalysisRequest &req);
bool requestFromJson(const std::string &text, AnalysisRequest *req,
                     std::string *error);

std::string responseToJson(const AnalysisResponse &resp);
bool responseFromJson(const std::string &text, AnalysisResponse *resp,
                      std::string *error);

// --- Equality (tests, smoke diffs) ----------------------------------

/**
 * Bit-exact equality of two responses: every cell field, every
 * double compared by value identity (NaN == NaN). What "pinned
 * bit-identical" means, in one reusable place.
 */
bool responsesEqual(const AnalysisResponse &a, const AnalysisResponse &b,
                    std::string *whyNot = nullptr);

} // namespace api
} // namespace gpuperf

#endif // GPUPERF_API_CODECS_H
