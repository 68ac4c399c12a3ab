package certdir

// CRLRecord is the WAL's CRL record, for the tests in certdir_test,
// which boot sf-certd through internal/daemon (a package that imports
// this one).
var CRLRecord = crlRecord
